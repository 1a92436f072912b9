// Package mpi is the message-passing runtime of the simulator: it runs one
// goroutine per MPI rank on a booted partition, pins each rank to a core
// according to the node operating mode, and synchronizes rank logical
// clocks through the simulated torus and collective networks.
//
// Scheduling is cooperative and fully deterministic: exactly one rank
// executes at a time, and the scheduler always advances the ready rank with
// the smallest cycle count (ties broken by rank id). Ranks yield at bounded
// compute time slices and at every blocking communication call, so shared
// node resources (the L3, the DDR controllers) observe a fine-grained,
// reproducible interleaving of their cores' accesses.
//
// Message timing follows an eager protocol: a send charges the sender its
// software overhead plus injection cost and posts the message with an
// arrival timestamp computed from the torus model (or from an intra-node
// copy through the shared L3 when source and destination ranks share a
// node — the mechanism that makes virtual-node-mode neighbour exchanges
// cheaper in DDR traffic, visible in the paper's Figure 12). A receive
// blocks until the message exists and then advances the receiver's clock to
// the arrival time.
package mpi

import (
	"fmt"
	"sort"
	"sync"

	"bgpsim/internal/core"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/node"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// Timing constants of the MPI library software layer, in core cycles.
const (
	// SendOverhead is the per-send library cost on the sender.
	SendOverhead = 1200
	// RecvOverhead is the per-receive library cost on the receiver.
	RecvOverhead = 900
	// IntraNodeLatency is the extra delivery latency of a message
	// between ranks sharing a node, beyond the L3 copy itself.
	IntraNodeLatency = 600
	// DefaultSlice is the compute time-slice between scheduler yields.
	DefaultSlice = 50_000
	// commBufBytes reserves each rank's communication-buffer region.
	commBufBytes = 8 << 20
)

type rankStatus uint8

const (
	statusReady rankStatus = iota
	statusBlocked
	statusDone
)

type message struct {
	src     int
	bytes   int
	arrival uint64
}

// Job is one SPMD program launch over a partition.
type Job struct {
	m     *machine.Machine
	ranks []*Rank
	slice uint64

	nodeIDs []int // distinct node ids hosting ranks

	coll    *collState
	errMu   sync.Mutex
	err     error
	aborted bool

	// Epoch-memo state (see memo.go). memo is non-nil only when the memo
	// engaged (EnableEpochMemo called and no observer hooks installed); its
	// mode changes at cuts only.
	memoCache  *epochmemo.Cache
	memoCfgKey string
	memo       *epochMemo

	onAdvance func(clock uint64)
	onSpan    func(cat, name string, node, rank int, start, end uint64)
}

// Rank is one MPI process.
type Rank struct {
	job    *Job
	id     int
	nodeID int
	coreID int
	nd     *node.Node
	cr     *core.Core

	resume  chan struct{}
	yielded chan struct{}
	status  rankStatus

	base    uint64
	brk     uint64
	commBuf uint64

	mailbox  map[int][]message
	waitSrc  int // valid while blocked in Recv; AnySource or rank id
	inRecv   bool
	collWait *collState

	bound     map[*isa.Program][]*core.ExecState // one state per thread, see states
	groupBase map[string]uint64
	groupSize map[string]uint64

	// memo is the rank's side of the epoch memo, non-nil only while the run
	// records or replays (see memo.go): every other run's per-op hook is one
	// nil check.
	memo *memoRank
}

// NewJob prepares a launch of nranks processes on the partition. The rank
// count must not exceed the partition capacity in its operating mode.
func NewJob(m *machine.Machine, nranks int) (*Job, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("mpi: invalid rank count %d", nranks)
	}
	if nranks > m.MaxRanks() {
		return nil, fmt.Errorf("mpi: %d ranks exceed capacity %d of %d nodes in %v",
			nranks, m.MaxRanks(), m.NumNodes(), m.Mode())
	}
	j := &Job{m: m, slice: DefaultSlice}
	seen := make(map[int]bool)
	for r := 0; r < nranks; r++ {
		nodeID, coreID := m.Place(r)
		base := (uint64(r) + 2) << 33
		rk := &Rank{
			job:       j,
			id:        r,
			nodeID:    nodeID,
			coreID:    coreID,
			nd:        m.Nodes[nodeID],
			cr:        m.Nodes[nodeID].Cores[coreID],
			resume:    make(chan struct{}, 1),
			yielded:   make(chan struct{}, 1),
			base:      base,
			commBuf:   base,
			brk:       base + commBufBytes,
			mailbox:   make(map[int][]message),
			bound:     make(map[*isa.Program][]*core.ExecState),
			groupBase: make(map[string]uint64),
			groupSize: make(map[string]uint64),
		}
		j.ranks = append(j.ranks, rk)
		if !seen[nodeID] {
			seen[nodeID] = true
			j.nodeIDs = append(j.nodeIDs, nodeID)
		}
	}
	sort.Ints(j.nodeIDs)
	return j, nil
}

// OnAdvance installs a hook invoked after every scheduler dispatch with the
// dispatched rank's logical clock. Counter samplers use it to take
// periodic snapshots while a job runs; the hook runs on the scheduler
// goroutine, never concurrently with rank code.
func (j *Job) OnAdvance(fn func(clock uint64)) { j.onAdvance = fn }

// OnSpan installs a hook receiving one span per rank lifetime ("rank"),
// per program execution ("kernel") and per collective participation
// ("collective"), with start/end stamps on the executing core's simulated
// clock. Hooks run on rank goroutines but always under the scheduler's
// one-rank-at-a-time exclusivity, in an order that is a pure function of
// the job — never of the host. A nil hook (the default) costs one branch
// per potential span.
func (j *Job) OnSpan(fn func(cat, name string, node, rank int, start, end uint64)) { j.onSpan = fn }

// SetSlice overrides the compute time slice (cycles between scheduler
// yields during long compute phases).
func (j *Job) SetSlice(cycles uint64) {
	if cycles == 0 {
		cycles = DefaultSlice
	}
	j.slice = cycles
}

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.ranks) }

// Machine returns the partition the job runs on.
func (j *Job) Machine() *machine.Machine { return j.m }

// NodeIDs returns the sorted distinct node ids hosting ranks.
func (j *Job) NodeIDs() []int {
	out := make([]int, len(j.nodeIDs))
	copy(out, j.nodeIDs)
	return out
}

// RankInfo describes a rank's placement; used by instrumentation layers.
type RankInfo struct {
	Rank, NodeID, CoreID int
}

// Placement returns the placement of every rank.
func (j *Job) Placement() []RankInfo {
	out := make([]RankInfo, len(j.ranks))
	for i, r := range j.ranks {
		out[i] = RankInfo{Rank: r.id, NodeID: r.nodeID, CoreID: r.coreID}
	}
	return out
}

type abortSentinel struct{}

// Run executes body once per rank and blocks until every rank finishes.
// It returns an error on deadlock, collective mismatch, or a panic inside
// a rank body.
func (j *Job) Run(body func(*Rank)) error {
	if j.aborted {
		return fmt.Errorf("mpi: job already run")
	}
	j.initMemo()
	if j.memo != nil {
		// Every return below follows each rank goroutine's final yield.
		defer j.memo.finish()
	}
	for _, r := range j.ranks {
		r.status = statusReady
		r.nd.SetActive(r.coreID, true)
		go r.main(body)
	}
	defer func() { j.aborted = true }()

	for {
		r := j.pickNext()
		if r == nil {
			if j.allDone() {
				return j.runErr()
			}
			j.abort(fmt.Errorf("mpi: deadlock: %s", j.describeBlocked()))
			return j.runErr()
		}
		r.resume <- struct{}{}
		<-r.yielded
		r.nd.UPC.Poll()
		if j.onAdvance != nil {
			j.onAdvance(r.cr.Cycles)
		}
		if err := j.runErr(); err != nil {
			j.abort(err)
			return j.runErr()
		}
	}
}

// setErr records the job's first error. The slot is written on rank
// goroutines (a panicking body, in Rank.main's recover) and read on the
// scheduler goroutine and on every rank's yield path; the mutex makes
// those accesses safe on their own terms rather than by way of the
// resume/yielded handoff that happens to order them.
func (j *Job) setErr(err error) {
	j.errMu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.errMu.Unlock()
}

// runErr returns the job's first error, if any.
func (j *Job) runErr() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.err
}

func (j *Job) pickNext() *Rank {
	var best *Rank
	for _, r := range j.ranks {
		if r.status != statusReady {
			continue
		}
		if best == nil || r.cr.Cycles < best.cr.Cycles {
			best = r
		}
	}
	return best
}

func (j *Job) allDone() bool {
	for _, r := range j.ranks {
		if r.status != statusDone {
			return false
		}
	}
	return true
}

func (j *Job) describeBlocked() string {
	s := ""
	for _, r := range j.ranks {
		if r.status != statusBlocked {
			continue
		}
		if s != "" {
			s += "; "
		}
		switch {
		case r.inRecv:
			s += fmt.Sprintf("rank %d waiting for message from %d", r.id, r.waitSrc)
		case r.collWait != nil:
			s += fmt.Sprintf("rank %d in collective %v", r.id, r.collWait.op)
		default:
			s += fmt.Sprintf("rank %d blocked", r.id)
		}
	}
	if s == "" {
		s = "no ranks blocked (scheduler invariant violated)"
	}
	return s
}

// abort releases every non-finished rank goroutine so Run can return. It
// runs on the scheduler goroutine once no rank is being dispatched.
func (j *Job) abort(err error) {
	j.setErr(err)
	for _, r := range j.ranks {
		if r.status == statusDone {
			continue
		}
		r.status = statusReady
		r.resume <- struct{}{}
		<-r.yielded
	}
}

func (r *Rank) main(body func(*Rank)) {
	defer func() {
		if p := recover(); p != nil {
			if _, isAbort := p.(abortSentinel); !isAbort {
				r.job.setErr(fmt.Errorf("mpi: rank %d panicked: %v", r.id, p))
			}
		}
		r.status = statusDone
		r.nd.SetActive(r.coreID, false)
		r.yielded <- struct{}{}
	}()
	<-r.resume
	if r.job.aborted || r.job.runErr() != nil {
		panic(abortSentinel{})
	}
	start := r.cr.Cycles
	body(r)
	if r.job.onSpan != nil {
		r.job.onSpan("rank", "main", r.nodeID, r.id, start, r.cr.Cycles)
	}
}

// yield hands control back to the scheduler and waits to be resumed.
func (r *Rank) yield() {
	r.yielded <- struct{}{}
	<-r.resume
	if r.job.runErr() != nil {
		panic(abortSentinel{})
	}
}

// block marks the rank not runnable and yields; some other rank must mark
// it ready before it can run again.
func (r *Rank) block() {
	r.status = statusBlocked
	r.nd.SetActive(r.coreID, false)
	r.yield()
}

// makeReady marks a blocked rank runnable again.
func (r *Rank) makeReady() {
	r.status = statusReady
	r.nd.SetActive(r.coreID, true)
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the job's rank count.
func (r *Rank) Size() int { return len(r.job.ranks) }

// NodeID returns the node hosting the rank.
func (r *Rank) NodeID() int { return r.nodeID }

// CoreID returns the core the rank is pinned to.
func (r *Rank) CoreID() int { return r.coreID }

// Node returns the hosting node.
func (r *Rank) Node() *node.Node { return r.nd }

// Core returns the rank's core.
func (r *Rank) Core() *core.Core { return r.cr }

// Cycles returns the rank's logical clock (its core's Time Base).
func (r *Rank) Cycles() uint64 { return r.cr.Cycles }
