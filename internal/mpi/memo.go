package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/statehash"
)

// This file is the epoch memo: SPMD rank memoization at collective
// granularity. Every collective the whole job passes through is a "cut";
// the stretch from one cut to the next — including the completion charges
// of the opening collective — is an "epoch". The embedder's configuration
// key is the full run identity and a simulation is a deterministic function
// of it, so what the memo keeps is a replay log per identity: one chain —
// the identity's recorded epochs in cut order, plus the digest of the
// machine state at the run's first cut — stored in internal/epochmemo under
// a key derived from the identity alone, fetched once and walked by index.
//
// A run is in one of three modes, decided once, at its first cut
// (epochmemo.Cache.Admit):
//
//   - idle: the identity has never been seen. Its mark is left and nothing
//     else happens all run — no state vector taken, nothing flattened, no
//     per-op work; its cuts only count as first-sight misses — because most
//     identities of a cold sweep or a daemon's job mix never recur, and a
//     recording nobody replays is pure cost.
//   - recording: the mark is there, so the identity has recurred. The
//     machine is flattened at every cut and each epoch runs live while
//     per-rank recorders capture its observable effects — the sparse
//     machine-state diff between its two cuts, each rank's operation count,
//     Recv results, post-execution RNG positions, and final mailboxes — to
//     be appended to the chain at its closing cut. The chain is stored once,
//     when Run returns without error.
//   - replaying: a chain is there and its start digest equals that of the
//     one flatten this run makes. Cut i applies entry i; where the chain
//     ends the run goes live for good, and it never records.
//
// So the first run of an identity costs nothing, the second records, the
// third replays.
//
// The start digest proves the run met its first cut with the machine in the
// state the recording met it in. That catches an identity too coarse for
// what the embedder varies (a machine parameter left out of the key), a
// simulator changed under an unchanged key, and a chain damaged at its head.
// It says nothing of what the flatten cannot see (mailboxes, RNG positions,
// allocation breaks) nor of anything after the first cut: those follow from
// the identity by determinism, and a body that strays from its recording
// anyway meets the tripwires below. A mismatch is a miss — the run records,
// and its chain replaces the stale one.
//
// A replayed epoch costs in proportion to its diff, not to the machine. The
// entry's diff is applied to the state vector only; of the machine, just the
// core clocks are written (pre-installing every core at its next-cut arrival
// time, which turns all release waits into no-ops), because during a skipped
// epoch the rank scheduler and the next collective's arrival bookkeeping
// read nothing else. The vector then runs ahead of the machine for as long
// as the replay lasts, and the whole-machine write-back ("materialize")
// happens once: when the run goes live, or when Run returns. Mailboxes are
// installed wholesale, and every rank is handed a skip budget — its next
// budget ops return recorded results without touching simulated state. Exec
// skips still bind programs through the normal path (so address-space layout
// evolves identically) and advance each bound state's RNG to its recorded
// position; at an epoch boundary a bound program is always either fully
// executed or untouched, so that one word is the whole difference.
//
// Every entry carries a checksum over all that replay consumes, taken when
// it was recorded and re-derived just before its diff touches the vector. A
// mismatch — bit rot, an accidental mutation of a supposedly immutable
// entry — ends the replay there: the run goes live and the chain is dropped
// back to the identity's mark, so the next run records afresh. Replay is
// otherwise exact by construction and guarded by tripwires: a rank issuing
// an op beyond its budget, exhausting its budget before the closing
// collective, or closing with a different collective than the entry
// recorded panics rather than diverging silently.
//
// Mailboxes are installed wholesale rather than replayed send-by-send
// because Recv with AnySource pops the earliest arrival across queue
// heads: replaying sends out of their original interleaving would change
// which message each Recv returns. Skipped Recvs therefore consume the
// recorded result sequence, and nobody reads mailboxes mid-replay.
//
// The cut is the last arriver's completion frame in doCollective. The final
// epoch, from the last cut to job end, is never closed: a full replay is one
// flatten at the run's first cut, one checksum and one diff application per
// epoch, and one materialization at its last cut.
//
// Exclusions and safety: the UPC counter unit is not part of the state
// vector — its registers change only at counter-library calls, which the
// standard instrumentation issues strictly before the first cut and after
// the last. A mid-run mutation (region-bracketing bodies) calls
// Job.MarkExternal, which drops the epoch being recorded and switches the
// memo off for the rest of the run — the chain keeps the epochs closed
// before it, so a later run replays that prefix and finishes live; a
// mutation during a replayed epoch is a tripwire panic, since live counters
// would have been read mid-epoch. Jobs with OnAdvance or OnSpan observers
// never enable the memo (skipped epochs would emit neither samples nor
// spans), and a node with a UPC threshold handler switches it off at the
// next cut (materializing first).

// memoMode is the memo's whole control state.
type memoMode uint8

const (
	memoUndecided memoMode = iota // no cut seen yet
	memoIdle                      // identity never seen: its mark is left, cuts only count
	memoRecording                 // mark found: every closing cut appends an entry
	memoReplaying                 // chain found: cut i applies entry i
	memoOff                       // live for good: the replay is over, or the memo switched itself off
)

type epochMemo struct {
	j      *Job
	cache  *epochmemo.Cache
	cfgKey string
	key    epochmemo.Key // the identity's, from Admit at the first cut

	mode memoMode

	// Replaying: the identity's chain and the index of the entry the next
	// cut applies.
	chain *epochChain
	next  int

	// Recording: the first cut's digest and the epochs closed so far.
	start    statehash.Digest
	recorded []epochEntry

	// vec is the whole-machine state vector, taken from vecPool at the first
	// cut of a recording or replaying run, and lens its nodes' window lengths
	// in j.nodeIDs order, counted once then; preVec, which only a recording
	// run takes, is the recording base (the vector as of the opening cut).
	// Both vectors go back to the pool when Run returns. ahead means vec
	// holds replayed epochs the machine has not been written back to yet.
	vec    []uint64
	lens   []int
	preVec []uint64
	ahead  bool

	rs []memoRank

	// poisoned: external state mutation seen mid-run. Set by MarkExternal
	// on whichever rank goroutine runs the instrumented body, read at the
	// next cut on the last arriver's; atomic so that pair is ordered by
	// the flag itself.
	poisoned atomic.Bool

	hits, misses, firstSights, stores, corrupt uint64
	flattens, materializations                 uint64
}

// vecPool recycles state vectors across jobs: a vector is megabytes, every
// word of it is overwritten by a flatten before it is read, and a sweep runs
// hundreds of jobs over a handful of geometries — so zeroing a fresh pair
// per job would be among the memo's largest costs on a warm pass.
var vecPool sync.Pool

// getVec returns a state vector of length n with unspecified contents.
func getVec(n int) []uint64 {
	if v, _ := vecPool.Get().(*[]uint64); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]uint64, n)
}

func putVec(v []uint64) {
	if v != nil {
		vecPool.Put(&v)
	}
}

// memoRank is the per-rank side of the memo, reachable from Rank.memo while
// the run records or replays: the replay cursors and the recording
// accumulators.
type memoRank struct {
	// Replaying: the rank's next skip ops return recorded results.
	skip    int
	recvSeq []int
	recvCur int
	rngSeq  []uint64
	rngCur  int

	// Recording accumulators for the epoch in flight.
	recOps  int
	recRecv []int
	recRng  []uint64
}

// epochChain is one run identity's replay log, immutable once stored: the
// digest of the machine state at the run's first cut and the epochs
// recorded from there, in cut order.
type epochChain struct {
	start   statehash.Digest
	entries []epochEntry
}

type epochEntry struct {
	diffIdx []int32
	diffVal []uint64

	ranks []entryRank

	closeOp    collOp
	closeBytes int
	closeRoot  int
	// closeLast is the rank that arrived last at the closing cut when the
	// epoch ran live. Replayed ranks reach the cut in clock order instead,
	// so when the cut completes live the job asks for this rank to stand in
	// as the last arriver (see atCut).
	closeLast int

	// sum is checksum() as of the closing cut.
	sum uint64
}

type entryRank struct {
	budget  int
	recvSeq []int
	rngSeq  []uint64
	mailbox map[int][]message
}

// checksum folds every field replay consumes into one word. It runs once
// per replayed epoch over the whole diff, so it folds through statehash's
// two independent lanes rather than one serial multiply chain; changing any
// single word changes it.
func (e *epochEntry) checksum() uint64 {
	h := statehash.New()
	h.Word(uint64(len(e.diffIdx)))
	idx := e.diffIdx
	for ; len(idx) >= 2; idx = idx[2:] {
		h.Word(uint64(uint32(idx[0]))<<32 | uint64(uint32(idx[1])))
	}
	if len(idx) == 1 {
		h.Word(uint64(uint32(idx[0])))
	}
	h.Words(e.diffVal)
	h.Word(uint64(e.closeOp))
	h.Word(uint64(e.closeBytes)<<16 | uint64(uint32(e.closeRoot)))
	h.Word(uint64(e.closeLast))
	h.Word(uint64(len(e.ranks)))
	var srcs []int
	for i := range e.ranks {
		er := &e.ranks[i]
		h.Word(uint64(er.budget))
		h.Word(uint64(len(er.recvSeq)))
		for _, v := range er.recvSeq {
			h.Word(uint64(v))
		}
		h.Word(uint64(len(er.rngSeq)))
		h.Words(er.rngSeq)
		srcs = srcs[:0]
		for src := range er.mailbox {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		h.Word(uint64(len(srcs)))
		for _, src := range srcs {
			q := er.mailbox[src]
			h.Word(uint64(src))
			h.Word(uint64(len(q)))
			for _, msg := range q {
				h.Word(uint64(msg.bytes))
				h.Word(msg.arrival)
			}
		}
	}
	d := h.Sum()
	return d.Lo ^ d.Hi
}

// memoOp is the memo's one hook in Exec, Compute, Send and Recv. It reports
// whether the op is skipped: true consumes one slot of the replayed epoch's
// budget and the caller returns the recorded result without touching
// simulated state; false lets the op run live, counted when the epoch is
// being recorded. Outside a recording or replaying run — no memo, an idle
// run, a run gone live — it is one branch.
func (r *Rank) memoOp(op string) bool {
	rs := r.memo
	if rs == nil {
		return false
	}
	if r.job.memo.mode == memoRecording {
		rs.recOps++
		return false
	}
	// Running dry before the closing collective means the body diverged
	// from the recorded epoch.
	if rs.skip == 0 {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d issued %s beyond the replayed epoch's operations", r.id, op))
	}
	rs.skip--
	return true
}

// EnableEpochMemo arms the epoch memo with a backing cache and the
// configuration key identifying everything that shapes this job's
// execution: machine parameters, program identity and inputs, ISA version.
// The key names the job's replay chain, so jobs sharing a cfgKey replay
// each other's epochs — from the third run of a cfgKey on: the first only
// leaves its mark and the second records. Only the machine state at the
// first cut is compared against the recording; everything else is taken
// from the key on trust, so a too-coarse cfgKey costs correctness and
// embedders must fold in every configuration knob that can change
// execution. A nil cache disables the memo. The memo engages at Run time
// only if the job has no OnAdvance or OnSpan observer.
func (j *Job) EnableEpochMemo(c *epochmemo.Cache, cfgKey string) {
	j.memoCache = c
	j.memoCfgKey = cfgKey
}

// MarkExternal tells the memo that state outside the simulated machine
// vector (UPC counter registers, host-side observers) was mutated mid-run.
// Before the first cut this is a no-op — epochs only open at cuts. Later it
// poisons the epoch in flight and switches the memo off for the rest of the
// run. During a replayed epoch it panics: the mutation would have observed
// mid-epoch live state that replay does not reconstruct. Safe to call from
// rank bodies.
func (j *Job) MarkExternal() {
	m := j.memo
	if m == nil {
		return
	}
	switch m.mode {
	case memoUndecided: // no epoch is open yet
	case memoReplaying:
		panic("mpi: epoch memo: external state mutation during a replayed epoch (region-bracketed counter sessions require -no-epochmemo)")
	default:
		m.poisoned.Store(true)
	}
}

// PerfStats reports what the epoch memo did during Run.
type PerfStats struct {
	// Epoch memo cut and epoch counts for this job only. A hit is a cut that
	// replayed its epoch; every miss ran its epoch live. FirstSights counts
	// the misses of a run whose identity had never been seen (one mark left,
	// nothing recorded); a replaying run counts one miss, at the cut where
	// its chain ended; the rest recorded. Stores counts the epochs of the
	// chain the run stored, never marks. Corrupt counts replays ended by an
	// entry that failed its checksum (chain dropped, epoch re-simulated,
	// re-recorded by the next run).
	EpochMemoHits, EpochMemoMisses, EpochMemoFirstSights, EpochMemoStores, EpochMemoCorrupt uint64
	// The memo's whole-machine passes: Flattens reads the machine into the
	// state vector (and hashes it), Materializations writes the vector back.
	// Everything else the memo does is proportional to an epoch's diff.
	EpochMemoFlattens, EpochMemoMaterializations uint64
}

// Perf returns this job's memo counters.
func (j *Job) Perf() PerfStats {
	var s PerfStats
	if m := j.memo; m != nil {
		s.EpochMemoHits, s.EpochMemoMisses, s.EpochMemoFirstSights = m.hits, m.misses, m.firstSights
		s.EpochMemoStores, s.EpochMemoCorrupt = m.stores, m.corrupt
		s.EpochMemoFlattens, s.EpochMemoMaterializations = m.flattens, m.materializations
	}
	return s
}

// initMemo resolves the memo gate once per Run, after all observers are
// installed.
func (j *Job) initMemo() {
	if j.memoCache == nil || j.onAdvance != nil || j.onSpan != nil {
		return
	}
	j.memo = &epochMemo{j: j, cache: j.memoCache, cfgKey: j.memoCfgKey}
}

// finish is the memo's part of Run's way out, when every rank goroutine has
// made its final yield and nothing can reach the memo's buffers any more.
// It writes back whatever the vector is still ahead by — a body that
// panicked or deadlocked mid-replay leaves it so — stores the chain a
// recording run built, and hands the state vectors back to the pool. A run
// that failed stores nothing: replay never extends a chain, so a truncated
// one would cap every later run of the identity at the point of failure.
func (m *epochMemo) finish() {
	m.materialize()
	if len(m.recorded) > 0 && m.j.runErr() == nil {
		ch := &epochChain{start: m.start, entries: exactCopy(m.recorded)}
		if m.cache.Record(m.key, ch, ch.footprint()) {
			m.stores += uint64(len(ch.entries))
		}
	}
	putVec(m.vec)
	putVec(m.preVec)
	m.vec, m.preVec = nil, nil
}

// flatten reads the whole machine into vec — taking the vector on the run's
// first call — and returns its digest, hashing each node's window right
// after it was written, while it is still in the host's caches.
func (m *epochMemo) flatten() statehash.Digest {
	j := m.j
	if m.vec == nil {
		m.lens = make([]int, len(j.nodeIDs))
		total := 0
		for k, id := range j.nodeIDs {
			m.lens[k] = statehash.Len(j.m.Nodes[id])
			total += m.lens[k]
		}
		m.vec = getVec(total)
	}
	h := statehash.New()
	i := 0
	for _, id := range j.nodeIDs {
		n := statehash.Read(j.m.Nodes[id], m.vec[i:])
		h.Words(m.vec[i : i+n])
		i += n
	}
	m.flattens++
	return h.Sum()
}

// materialize writes vec back to the machine if replayed epochs have left
// it ahead: the one O(machine) step of a replay.
func (m *epochMemo) materialize() {
	if !m.ahead {
		return
	}
	m.ahead = false
	i := 0
	for _, id := range m.j.nodeIDs {
		i += statehash.Write(m.j.m.Nodes[id], m.vec[i:])
	}
	m.materializations++
}

// atCut is the memo's hook at every cut, called with the job's collState
// from the frame of the last rank to arrive. It either replays the coming
// epoch (replay true — the caller must skip the live completion and leave
// releases at zero) or lets it run live (replay false — the caller
// completes live), closing and opening recordings on the way when the run
// records.
//
// last is the rank the caller must treat as the last arriver when it
// completes live. The last arriver takes its release before it yields, the
// waiters only when next dispatched, and the scheduler's next picks — hence
// the order in which the ranks' first accesses of the coming epoch meet the
// shared L3 — follow from that. Through a replayed epoch ranks arrive in
// clock order, not in the order the live epoch dispatched them, so the cut
// closing one names the rank its recording saw arrive last.
func (m *epochMemo) atCut(cs *collState, arriver int) (replay bool, last int) {
	last = arriver
	if m.mode == memoReplaying {
		ent := &m.chain.entries[m.next-1] // the epoch this cut closes
		if cs.op != ent.closeOp || cs.bytes != ent.closeBytes || cs.root != ent.closeRoot {
			panic(fmt.Sprintf("mpi: epoch memo divergence: replayed epoch closed with %v(bytes=%d, root=%d), job reached %v(bytes=%d, root=%d)",
				ent.closeOp, ent.closeBytes, ent.closeRoot, cs.op, cs.bytes, cs.root))
		}
		last = ent.closeLast
	}
	if m.mode == memoOff {
		return false, last
	}
	if m.poisoned.Load() || m.anyUPCHandler() {
		m.goLive()
		return false, last
	}
	first := m.mode == memoUndecided
	if first {
		m.admit()
	}
	switch m.mode {
	case memoIdle:
		m.misses++
		m.firstSights++
	case memoRecording:
		m.misses++
		if !first {
			m.closeEpoch(cs, arriver)
		}
		m.openEpoch()
	case memoReplaying:
		if m.next < len(m.chain.entries) {
			if ent := &m.chain.entries[m.next]; ent.checksum() == ent.sum {
				m.hits++
				m.next++
				m.apply(ent)
				return true, last
			}
			// Never replay damaged state: back to the identity's mark, so
			// its next run records afresh.
			m.corrupt++
			m.cache.Drop(m.key)
		}
		m.misses++
		m.goLive()
	}
	return false, last
}

// admit decides the run's mode, at its first cut. Only a run that will
// record or replay takes the per-rank state and the one flatten both need:
// the digest a chain must match to be replayed, and the first epoch's diff
// base otherwise.
func (m *epochMemo) admit() {
	key, seen, rec := m.cache.Admit(m.cfgKey)
	m.key = key
	if !seen {
		m.mode = memoIdle
		return
	}
	m.rs = make([]memoRank, len(m.j.ranks))
	for i, r := range m.j.ranks {
		r.memo = &m.rs[i]
	}
	d := m.flatten()
	if ch, ok := rec.(*epochChain); ok && ch.start == d {
		m.mode, m.chain = memoReplaying, ch
		return
	}
	m.mode, m.start = memoRecording, d
}

// goLive ends the memo's part in the run: the machine catches up with what
// was replayed, an epoch being recorded is dropped unclosed (the chain keeps
// those closed before it), and every rank's hook goes quiet.
func (m *epochMemo) goLive() {
	m.materialize()
	m.mode = memoOff
	for _, r := range m.j.ranks {
		r.memo = nil
	}
}

func (m *epochMemo) anyUPCHandler() bool {
	for _, id := range m.j.nodeIDs {
		if m.j.m.Nodes[id].UPC.HasHandler() {
			return true
		}
	}
	return false
}

// openEpoch arms the per-rank recorders over the coming epoch, with the
// current (pre-completion) machine vector as the diff base: the buffers
// trade places, so the closing flatten fills the other one and nothing is
// copied.
func (m *epochMemo) openEpoch() {
	if m.preVec == nil {
		m.preVec = getVec(len(m.vec))
	}
	m.vec, m.preVec = m.preVec, m.vec
	for i := range m.rs {
		rs := &m.rs[i]
		rs.recOps = 0
		rs.recRecv = rs.recRecv[:0]
		rs.recRng = rs.recRng[:0]
	}
}

// closeEpoch flattens the machine at the closing cut and appends the
// epoch's entry to the chain under construction.
func (m *epochMemo) closeEpoch(cs *collState, arriver int) {
	j := m.j
	m.flatten()
	ent := epochEntry{
		closeOp:    cs.op,
		closeBytes: cs.bytes,
		closeRoot:  cs.root,
		closeLast:  arriver,
	}
	// Two passes — count, then fill — so the diff is allocated once at its
	// exact length: append growth would leave up to twice that in capacity,
	// resident for as long as the entry is.
	n := 0
	for i, w := range m.vec {
		if w != m.preVec[i] {
			n++
		}
	}
	ent.diffIdx = make([]int32, n)
	ent.diffVal = make([]uint64, n)
	n = 0
	for i, w := range m.vec {
		if w != m.preVec[i] {
			ent.diffIdx[n], ent.diffVal[n] = int32(i), w
			n++
		}
	}
	ent.ranks = make([]entryRank, len(j.ranks))
	for i, r := range j.ranks {
		rs := &m.rs[i]
		er := &ent.ranks[i]
		er.budget = rs.recOps
		er.recvSeq = exactCopy(rs.recRecv)
		er.rngSeq = exactCopy(rs.recRng)
		for src, q := range r.mailbox {
			if len(q) == 0 {
				continue
			}
			if er.mailbox == nil {
				er.mailbox = make(map[int][]message)
			}
			er.mailbox[src] = exactCopy(q)
		}
	}
	ent.sum = ent.checksum()
	m.recorded = append(m.recorded, ent)
}

// exactCopy copies s into a slice with no spare capacity (nil when empty):
// what an immutable cache entry should hold.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// footprint is what the chain holds on the heap, from the capacities of
// its slices rather than their lengths, plus the store's bookkeeping for
// the key — the number the cache budget has to bound.
func (c *epochChain) footprint() int64 {
	const (
		mapHeader = 48 // runtime map header
		mapSlot   = 48 // one int → slice-header slot, bucket overhead included
	)
	size := int64(epochmemo.SeenCost) + int64(unsafe.Sizeof(*c)) +
		int64(cap(c.entries))*int64(unsafe.Sizeof(epochEntry{}))
	for i := range c.entries {
		e := &c.entries[i]
		size += int64(cap(e.diffIdx))*4 + int64(cap(e.diffVal))*8 +
			int64(cap(e.ranks))*int64(unsafe.Sizeof(entryRank{}))
		for r := range e.ranks {
			er := &e.ranks[r]
			size += int64(cap(er.recvSeq)+cap(er.rngSeq)) * 8
			if er.mailbox != nil {
				size += mapHeader
			}
			for _, q := range er.mailbox {
				size += mapSlot + int64(cap(q))*int64(unsafe.Sizeof(message{}))
			}
		}
	}
	return size
}

// apply replays an entry: the state vector jumps to the closing cut's
// state (completion charges of the opening collective included) and of the
// machine only the core clocks follow — the scheduler orders the skipped
// epoch's dispatches by them, and the closing collective takes its arrival
// times from them; everything else waits for materialize. Mailboxes are
// installed wholesale, and every rank is armed to skip its recorded ops.
func (m *epochMemo) apply(ent *epochEntry) {
	for i, idx := range ent.diffIdx {
		m.vec[idx] = ent.diffVal[i]
	}
	m.ahead = true
	off := 0
	for k, id := range m.j.nodeIDs {
		m.j.m.Nodes[id].WriteClocks(m.vec[off:])
		off += m.lens[k]
	}
	for i, r := range m.j.ranks {
		er := &ent.ranks[i]
		clear(r.mailbox)
		for src, q := range er.mailbox {
			r.mailbox[src] = append([]message(nil), q...)
		}
		rs := &m.rs[i]
		rs.skip = er.budget
		rs.recvSeq, rs.recvCur = er.recvSeq, 0
		rs.rngSeq, rs.rngCur = er.rngSeq, 0
	}
}

// nextRecv returns the next recorded Recv result during a skipped Recv.
func (rs *memoRank) nextRecv(r *Rank) int {
	if rs.recvCur >= len(rs.recvSeq) {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d received more messages than the replayed epoch recorded", r.id))
	}
	v := rs.recvSeq[rs.recvCur]
	rs.recvCur++
	return v
}

// nextRng returns the next recorded post-execution RNG position during a
// skipped Exec.
func (rs *memoRank) nextRng(r *Rank) uint64 {
	if rs.rngCur >= len(rs.rngSeq) {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d executed more programs than the replayed epoch recorded", r.id))
	}
	v := rs.rngSeq[rs.rngCur]
	rs.rngCur++
	return v
}

// collArrive closes the rank's replay window: a replayed epoch must arrive
// at its closing collective with the skip budget and result cursors exactly
// exhausted.
func (r *Rank) collArrive(op collOp) {
	rs := r.memo
	if rs == nil || r.job.memo.mode != memoReplaying {
		return
	}
	if rs.skip != 0 || rs.recvCur != len(rs.recvSeq) || rs.rngCur != len(rs.rngSeq) {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d reached %v with %d ops, %d recvs, %d execs of the replayed epoch unconsumed",
			r.id, op, rs.skip, len(rs.recvSeq)-rs.recvCur, len(rs.rngSeq)-rs.rngCur))
	}
}

// skipExec replays one Exec: the program is bound through the normal path
// (allocation layout and RNG seeding evolve exactly as live) and each
// bound state jumps to its recorded completion, with no simulated work.
func (r *Rank) skipExec(p *isa.Program) {
	for _, st := range r.states(p) {
		st.SkipToEnd(r.memo.nextRng(r))
	}
}

// recordExec captures the post-execution RNG position of every state the
// Exec drove, in shard order.
func (r *Rank) recordExec(p *isa.Program) {
	rs := r.memo
	for _, st := range r.states(p) {
		rs.recRng = append(rs.recRng, st.RngState())
	}
}
