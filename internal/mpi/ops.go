package mpi

import (
	"fmt"

	"bgpsim/internal/core"
	"bgpsim/internal/isa"
)

// ForkJoinOverhead is the cycle cost charged on the master core at each
// end of an OpenMP-style parallel region (thread wake-up and join barrier).
const ForkJoinOverhead = 800

// Exec runs the program to completion, yielding to the scheduler every
// time slice. A program is bound to the rank's address space on first use
// and rewound on re-execution, so its arrays stay cache-resident across
// phases exactly as a real benchmark's do. Programs sharing a Group (the
// phases of one kernel) are bound over one region layout: they operate on
// the same arrays.
//
// In the threaded operating modes (SMP/4, DUAL) the program's loops are
// split OpenMP-style across the rank's cores: every loop's trips divide
// into contiguous chunks executed concurrently, with a fork/join charge on
// the master — the hybrid MPI+OpenMP execution the paper lists as future
// work (§IX).
func (r *Rank) Exec(p *isa.Program) {
	if r.memoOp("Exec") {
		r.skipExec(p)
		return
	}
	start := r.cr.Cycles
	r.exec(p)
	if r.memo != nil {
		r.recordExec(p)
	}
	if r.job.onSpan != nil {
		r.job.onSpan("kernel", p.Name, r.nodeID, r.id, start, r.cr.Cycles)
	}
}

func (r *Rank) exec(p *isa.Program) {
	states := r.states(p)
	if states[0].Done() {
		for _, st := range states {
			st.Rewind()
		}
	}
	if len(states) > 1 {
		r.execThreaded(states)
		return
	}
	st := states[0]
	for {
		if r.cr.Exec(st, r.cr.Cycles+r.job.slice) {
			return
		}
		r.yield()
	}
}

// states returns the rank's execution states of p, one per thread of the
// operating mode in shard order, binding them on the rank's first use of p.
func (r *Rank) states(p *isa.Program) []*core.ExecState {
	states, ok := r.bound[p]
	if !ok {
		threads := r.job.m.Mode().ThreadsPerRank()
		states = make([]*core.ExecState, threads)
		for t := range states {
			states[t] = r.bindShard(p, t, threads)
		}
		r.bound[p] = states
	}
	return states
}

// bindShard resolves the program group's base address and binds one shard.
func (r *Rank) bindShard(p *isa.Program, shard, nshards int) *core.ExecState {
	base, haveBase := r.groupBase[p.Group]
	if !haveBase || p.Group == "" {
		base = r.brk
		r.brk += core.FootprintBytes(p) + core.LineBytes
		if p.Group != "" {
			r.groupBase[p.Group] = base
			r.groupSize[p.Group] = core.FootprintBytes(p)
		}
	} else if core.FootprintBytes(p) != r.groupSize[p.Group] {
		panic(fmt.Sprintf("mpi: rank %d: program %q footprint differs from its group %q",
			r.id, p.Name, p.Group))
	}
	st, err := core.BindShard(p, base, uint64(r.id)*0x9e37+1, shard, nshards)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d: %v", r.id, err))
	}
	return st
}

// execThreaded runs one parallel region across the rank's core set, one
// state per thread.
func (r *Rank) execThreaded(states []*core.ExecState) {
	threads := len(states)

	// Fork: the worker cores start at the master's clock.
	r.cr.AdvanceCycles(ForkJoinOverhead)
	cores := make([]*core.Core, threads)
	for t := 0; t < threads; t++ {
		cores[t] = r.nd.Cores[r.coreID+t]
		cores[t].WaitUntil(r.cr.Cycles)
		r.nd.SetActive(r.coreID+t, true)
	}

	// Advance the least-advanced unfinished shard one slice at a time;
	// the master core runs shard 0, so the rank's logical clock moves
	// with the region.
	for {
		pick := -1
		for t := 0; t < threads; t++ {
			if states[t].Done() {
				continue
			}
			if pick == -1 || cores[t].Cycles < cores[pick].Cycles {
				pick = t
			}
		}
		if pick == -1 {
			break
		}
		cores[pick].Exec(states[pick], cores[pick].Cycles+r.job.slice)
		r.yield()
	}

	// Join: the master waits for the slowest thread.
	var join uint64
	for t := 0; t < threads; t++ {
		if cores[t].Cycles > join {
			join = cores[t].Cycles
		}
	}
	r.cr.WaitUntil(join)
	r.cr.AdvanceCycles(ForkJoinOverhead)
	for t := 1; t < threads; t++ {
		r.nd.SetActive(r.coreID+t, false)
	}
}

// Compute charges raw cycles of work not expressed as an op stream (system
// services, imbalance perturbation).
func (r *Rank) Compute(cycles uint64) {
	if r.memoOp("Compute") {
		return
	}
	for cycles > 0 {
		step := cycles
		if step > r.job.slice {
			step = r.job.slice
		}
		r.cr.AdvanceCycles(step)
		cycles -= step
		r.yield()
	}
}

// Send posts bytes to rank dst. The send is eager: the sender charges its
// software and injection cost and continues; delivery time is carried on
// the message.
func (r *Rank) Send(dst, bytes int) {
	if r.memoOp("Send") {
		// The send's effects (clock advance, DMA and cache traffic, the
		// posted message) are all part of the replayed epoch's machine diff
		// and final mailboxes.
		return
	}
	if dst < 0 || dst >= len(r.job.ranks) {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: rank %d sends negative byte count", r.id))
	}
	r.cr.AdvanceCycles(SendOverhead)
	dstRank := r.job.ranks[dst]

	var arrival uint64
	switch {
	case dst == r.id:
		arrival = r.cr.Cycles
	case dstRank.nodeID == r.nodeID:
		// Intra-node: the message moves through the shared L3, not the
		// torus. The copy cost lands on the sender.
		r.cr.AdvanceCycles(r.nd.L3Copy(r.commBuf, dstRank.commBuf, uint64(bytes)))
		arrival = r.cr.Cycles + IntraNodeLatency
	default:
		// Inter-node: torus DMA reads the payload from the sender's
		// DRAM and writes it to the receiver's DRAM through the
		// receiver's memory-side L3.
		r.nd.DMATransfer(uint64(bytes), true)
		dstRank.nd.DMATransfer(uint64(bytes), false)
		dstRank.nd.DMADeliver(dstRank.commBuf, uint64(bytes))
		lat := r.job.m.Torus.Transfer(r.nodeID, dstRank.nodeID, bytes, r.nd.ActiveCores())
		arrival = r.cr.Cycles + lat
	}

	dstRank.mailbox[r.id] = append(dstRank.mailbox[r.id], message{src: r.id, bytes: bytes, arrival: arrival})
	if dstRank.status == statusBlocked && dstRank.inRecv &&
		(dstRank.waitSrc == AnySource || dstRank.waitSrc == r.id) {
		dstRank.makeReady()
	}
	r.yield()
}

// Recv blocks until a message from src (or from anyone, with AnySource) is
// available, advances the clock to its arrival, and returns its size. The
// size can steer the body's control flow, so the memo records it with the
// epoch and a skipped Recv returns the recorded one.
func (r *Rank) Recv(src int) int {
	if r.memoOp("Recv") {
		return r.memo.nextRecv(r)
	}
	bytes := r.recvLive(src)
	if rs := r.memo; rs != nil {
		rs.recRecv = append(rs.recRecv, bytes)
	}
	return bytes
}

func (r *Rank) recvLive(src int) int {
	if src != AnySource && (src < 0 || src >= len(r.job.ranks)) {
		panic(fmt.Sprintf("mpi: rank %d receives from invalid rank %d", r.id, src))
	}
	r.cr.AdvanceCycles(RecvOverhead)
	for {
		if msg, ok := r.takeMessage(src); ok {
			r.cr.WaitUntil(msg.arrival)
			return msg.bytes
		}
		r.waitSrc = src
		r.inRecv = true
		r.block()
		r.inRecv = false
	}
}

// takeMessage pops the earliest matching message.
func (r *Rank) takeMessage(src int) (message, bool) {
	if src != AnySource {
		q := r.mailbox[src]
		if len(q) == 0 {
			return message{}, false
		}
		r.mailbox[src] = q[1:]
		return q[0], true
	}
	bestSrc := -1
	for s, q := range r.mailbox {
		if len(q) == 0 {
			continue
		}
		if bestSrc == -1 || q[0].arrival < r.mailbox[bestSrc][0].arrival ||
			(q[0].arrival == r.mailbox[bestSrc][0].arrival && s < bestSrc) {
			bestSrc = s
		}
	}
	if bestSrc == -1 {
		return message{}, false
	}
	q := r.mailbox[bestSrc]
	r.mailbox[bestSrc] = q[1:]
	return q[0], true
}

// SendRecv exchanges messages with a partner: the idiom of every halo
// exchange. It posts the send, then receives.
func (r *Rank) SendRecv(dst, sendBytes, src int) int {
	r.Send(dst, sendBytes)
	return r.Recv(src)
}

// Collective operations. All ranks of the job must call the same sequence
// of collectives with matching parameters (SPMD discipline); a mismatch
// aborts the job.

type collOp uint8

const (
	opBarrier collOp = iota
	opBcast
	opReduce
	opAllreduce
	opAlltoall
)

var collOpNames = [...]string{
	opBarrier: "Barrier", opBcast: "Bcast", opReduce: "Reduce",
	opAllreduce: "Allreduce", opAlltoall: "Alltoall",
}

func (o collOp) String() string { return collOpNames[o] }

type collState struct {
	op       collOp
	bytes    int
	root     int
	arrived  int
	maxClock uint64
	waiters  []*Rank
	releases []uint64
}

// Barrier synchronizes all ranks through the dedicated barrier network.
func (r *Rank) Barrier() { r.collective(opBarrier, 0, 0) }

// Bcast broadcasts bytes from root over the collective network.
func (r *Rank) Bcast(root, bytes int) { r.collective(opBcast, bytes, root) }

// Reduce combines bytes from all ranks at root over the collective network.
func (r *Rank) Reduce(root, bytes int) { r.collective(opReduce, bytes, root) }

// Allreduce combines bytes from all ranks and redistributes the result:
// a reduction followed by a broadcast on the tree.
func (r *Rank) Allreduce(bytes int) { r.collective(opAllreduce, bytes, 0) }

// Alltoall exchanges bytesPerRank with every other rank over the torus
// (personalized all-to-all, the transpose step of FT and the key exchange
// of IS).
func (r *Rank) Alltoall(bytesPerRank int) { r.collective(opAlltoall, bytesPerRank, 0) }

func (r *Rank) collective(op collOp, bytes, root int) {
	r.collArrive(op)
	start := r.cr.Cycles
	r.doCollective(op, bytes, root)
	if r.job.onSpan != nil {
		r.job.onSpan("collective", op.String(), r.nodeID, r.id, start, r.cr.Cycles)
	}
}

func (r *Rank) doCollective(op collOp, bytes, root int) {
	j := r.job
	if j.coll == nil {
		j.coll = &collState{op: op, bytes: bytes, root: root, releases: make([]uint64, len(j.ranks))}
	}
	cs := j.coll
	if cs.op != op || cs.bytes != bytes || cs.root != root {
		panic(fmt.Sprintf("mpi: rank %d called %v(bytes=%d, root=%d) while job is in %v(bytes=%d, root=%d)",
			r.id, op, bytes, root, cs.op, cs.bytes, cs.root))
	}
	cs.arrived++
	if r.cr.Cycles > cs.maxClock {
		cs.maxClock = r.cr.Cycles
	}
	if cs.arrived < len(j.ranks) {
		cs.waiters = append(cs.waiters, r)
		r.collWait = cs
		r.block()
		r.collWait = nil
		r.cr.WaitUntil(cs.releases[r.id])
		return
	}
	// Last arriver completes the operation for everyone — unless the memo
	// replays the coming epoch, in which case the completion charges are
	// already inside the applied state diff and every release stays zero
	// (the diff pre-installed each core's clock at its next-cut arrival,
	// so the WaitUntils below are no-ops).
	j.coll = nil
	last := r
	if m := j.memo; m == nil {
		r.completeCollective(cs)
	} else if replay, id := m.atCut(cs, r.id); !replay {
		r.completeCollective(cs)
		last = j.ranks[id]
	}
	for _, w := range cs.waiters {
		w.makeReady()
	}
	// The last arriver takes its release before it yields, everyone else
	// when next dispatched. last is this rank, except after a replayed epoch
	// (see atCut), where this rank yields like a waiter instead.
	last.cr.WaitUntil(cs.releases[last.id])
	r.yield()
	r.cr.WaitUntil(cs.releases[r.id])
}

func (r *Rank) completeCollective(cs *collState) {
	if cs.op == opAlltoall {
		r.completeAlltoall(cs)
		return
	}
	j := r.job
	var lat uint64
	switch cs.op {
	case opBarrier:
		lat = j.m.Collective.Barrier(j.nodeIDs)
	case opBcast:
		lat = j.m.Collective.Broadcast(j.nodeIDs, cs.bytes)
	case opReduce:
		lat = j.m.Collective.Reduce(j.nodeIDs, cs.bytes)
	case opAllreduce:
		lat = j.m.Collective.Reduce(j.nodeIDs, cs.bytes) +
			j.m.Collective.Broadcast(j.nodeIDs, cs.bytes)
	}
	for i := range cs.releases {
		cs.releases[i] = cs.maxClock + lat
	}
}

// completeAlltoall charges the full personalized exchange: every ordered
// rank pair moves bytes over the torus (or through the shared L3 for
// co-located ranks), and each rank's release time reflects the serial
// injection of its n-1 messages.
func (r *Rank) completeAlltoall(cs *collState) {
	j := r.job
	n := len(j.ranks)
	for i, src := range j.ranks {
		var injection uint64 = SendOverhead
		for k, dst := range j.ranks {
			if k == i {
				continue
			}
			switch {
			case dst.nodeID == src.nodeID:
				injection += src.nd.L3Copy(src.commBuf, dst.commBuf, uint64(cs.bytes)) + IntraNodeLatency
			default:
				src.nd.DMATransfer(uint64(cs.bytes), true)
				dst.nd.DMATransfer(uint64(cs.bytes), false)
				dst.nd.DMADeliver(dst.commBuf, uint64(cs.bytes))
				injection += j.m.Torus.Transfer(src.nodeID, dst.nodeID, cs.bytes, src.nd.ActiveCores())
			}
		}
		cs.releases[i] = cs.maxClock + injection + RecvOverhead*uint64(n-1)/uint64(n)
	}
}
