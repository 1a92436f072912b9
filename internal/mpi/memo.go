package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"bgpsim/internal/core"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/statehash"
)

// This file is the epoch memo: SPMD rank memoization at collective
// granularity. Every collective the whole job passes through is a "cut";
// the stretch from one cut to the next — including the completion charges
// of the opening collective — is an "epoch". At each cut the runtime
// fingerprints everything the coming epoch can depend on and looks the
// fingerprint up in a content-addressed cache (internal/epochmemo):
//
//   - the flattened simulated machine state of every node hosting ranks
//     (caches, prefetchers, snoop filters, counters, DDR and network
//     interface totals, and — crucially — every core's cycle clock), via
//     the ReadState windows and a 128-bit statehash digest;
//   - each rank's rolling operation history: a fold over every MPI call
//     the rank has issued, including call results (Recv sizes), so equal
//     histories mean the SPMD bodies are at identical control-flow points
//     with identical futures;
//   - the variable runtime state the flatten cannot see: pending mailbox
//     contents, the address-draw RNG position and completion flag of every
//     bound program, and each rank's allocation brk;
//   - the job's configuration key (machine parameters, program identity,
//     ISA version), supplied by the embedder via EnableEpochMemo.
//
// The configuration key is the embedder's full run identity, so an entry
// can only be hit by a rerun of the identity that recorded it, and the memo
// is a per-identity replay chain: admission, cost and benefit are all
// decided run by run, never cut by cut.
//
// Admission is once per run identity, on second sight. At a run's first cut
// the cache is asked whether the identity has been run before
// (epochmemo.Cache.Admit, one mark per identity). If not, the whole job runs
// with the memo idle — no state vector taken, nothing flattened, hashed or
// probed; its cuts only count as first-sight misses — because most
// identities of a cold sweep or a daemon's job mix never recur, and a
// recording nobody replays is pure cost. A run whose identity carries the
// mark flattens and hashes the machine once, at its first cut, and from
// there every cut either hits or records: a missing epoch runs live while
// per-rank recorders capture its observable effects — the sparse
// machine-state diff between the two cuts, each rank's operation count, Recv
// results, post-execution RNG positions, and final mailboxes — and is stored
// at the closing cut. So the first run of an identity costs nothing, the
// second records, the third replays.
//
// A hit costs in proportion to the recorded diff, not to the machine. The
// entry's diff is applied to the state vector only; of the machine, just the
// core clocks are written (pre-installing every core at its next-cut arrival
// time, which turns all release waits into no-ops), because during a skipped
// epoch the rank scheduler and the next collective's arrival bookkeeping
// read nothing else. The vector then runs ahead of the machine across any
// number of chained hits, and the whole-machine write-back ("materialize")
// happens once: when a cut misses and the coming epoch must run live, when
// the memo disables itself, or when Run returns. Mailboxes are installed
// wholesale, and every rank is handed a skip budget — its next budget ops
// return recorded results without touching simulated state. Exec skips still
// bind programs through the normal path (so address-space layout evolves
// identically) and advance each bound state's RNG to its recorded position;
// at an epoch boundary a bound program is always either fully executed or
// untouched, so that one word is the whole difference.
//
// Replay is exact by construction and guarded by tripwires: a rank issuing
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
// The cut is the last arriver's completion frame in doCollective. Entries
// carry the key of the cut they end at, so consecutive hits chain without
// flattening or hashing anything ("warm chains") — the steady state of a
// rerun is one map probe, one checksum over the entry and one diff
// application per epoch, with one flatten at the run's first cut and one
// materialization at its last (the final epoch, from the last cut to job
// end, is never closed and always runs live).
//
// Exclusions and safety: the UPC counter unit is not part of the state
// vector — its registers change only at counter-library calls, which the
// standard instrumentation issues strictly before the first cut and after
// the last. A mid-run mutation (region-bracketing bodies) calls
// Job.MarkExternal, which poisons the armed recording and disables the
// memo for the rest of the run; a mutation during a replayed epoch is a
// tripwire panic, since live counters would have been read mid-epoch.
// Jobs with OnAdvance or OnSpan observers never enable the memo (skipped
// epochs would emit neither samples nor spans), and a node with a UPC
// threshold handler disables it at the next cut (materializing first).

type epochMemo struct {
	j      *Job
	cache  *epochmemo.Cache
	cfgKey string

	// admitted is Admit's verdict, taken at the first cut: false means this
	// is the identity's first run and the memo stays idle throughout.
	admitted bool

	// vec is the whole-machine state vector, taken from vecPool at the run's
	// first flatten; preVec, taken when the first recording opens, is the
	// recording base (the vector as of the opening cut). Both go back to the
	// pool when Run returns. ahead means vec holds replayed epochs the
	// machine has not been written back to yet.
	vec    []uint64
	preVec []uint64
	ahead  bool

	recording bool
	openKey   epochmemo.Key // key of the cut the recording opened at

	haveChain bool
	chainKey  epochmemo.Key // key of the current cut, inherited from a hit

	replayed *epochEntry // entry whose epoch is being replayed, for the closing assertion

	rs []memoRank

	cutSeen  bool
	disabled bool
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

// memoRank is the per-rank side of the memo: the rolling history fold, the
// replay cursors, and the recording accumulators.
type memoRank struct {
	hist uint64

	// Replay state: the rank's next skip ops return recorded results.
	replaying bool
	skip      int
	recvSeq   []int
	recvCur   int
	rngSeq    []uint64
	rngCur    int

	// Recording accumulators for the epoch in flight.
	recOps  int
	recRecv []int
	recRng  []uint64

	// states lists every ExecState the rank has bound, in bind order; the
	// key digests each one's RNG position and completion flag.
	states []*core.ExecState
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

	nextKey epochmemo.Key
}

type entryRank struct {
	budget  int
	recvSeq []int
	rngSeq  []uint64
	mailbox map[int][]message
}

// Checksum folds every field replay consumes into one word, making the
// entry an epochmemo.Checksummer: the cache re-derives this at every hit
// and treats a mismatch — bit rot, an accidental in-place mutation of a
// supposedly immutable entry — as a miss, so a damaged epoch re-simulates
// instead of replaying wrong state. It runs once per replayed epoch over the
// whole diff, so it folds through statehash's two independent lanes rather
// than one serial multiply chain; changing any single word changes it.
func (e *epochEntry) Checksum() uint64 {
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
	for i := 0; i < len(e.nextKey); i += 8 {
		h.Word(binary.LittleEndian.Uint64(e.nextKey[i:]))
	}
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

// History fold tags, one per op kind. Results that feed back into body
// control flow (Recv sizes) are folded too, so equal histories imply the
// SPMD bodies compute identical futures.
const (
	histExec uint64 = 1 + iota
	histCompute
	histSend
	histRecv
	histColl
)

// foldWord mixes one word into a rolling history (a murmur3-style
// finalizer step; collisions feed a 256-bit key, not an identity check).
func foldWord(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (rs *memoRank) fold(tag, a, b uint64) {
	rs.hist = foldWord(foldWord(foldWord(rs.hist, tag), a), b)
}

// take consumes one skip-budget slot; running dry before the closing
// collective means the body diverged from the recorded epoch.
func (rs *memoRank) take(r *Rank, op string) {
	if rs.skip == 0 {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d issued %s beyond the replayed epoch's operations", r.id, op))
	}
	rs.skip--
}

func progTag(p *isa.Program) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64
	for i := 0; i < len(p.Name); i++ {
		h ^= uint64(p.Name[i])
		h *= 1099511628211
	}
	return h
}

// EnableEpochMemo arms the epoch memo with a backing cache and the
// configuration key identifying everything that shapes this job's
// execution but lives outside the simulated machine state: machine
// parameters, program identity and inputs, ISA version. Jobs sharing a
// cfgKey and reaching identical cuts replay each other's epochs — from the
// second run of a cfgKey on, the first only leaves its mark; the cache's
// content addressing makes a too-coarse cfgKey cost correctness, so
// embedders must fold in every configuration knob that can change
// execution. A nil cache disables the memo. The memo engages at Run time
// only if the job has no OnAdvance or OnSpan observer.
func (j *Job) EnableEpochMemo(c *epochmemo.Cache, cfgKey string) {
	j.memoCache = c
	j.memoCfgKey = cfgKey
}

// SetFastForward enables or disables epoch fast-forwarding (default on):
// when a rank is the only runnable rank of the job, its compute ops run to
// completion in one dispatch instead of bounded time slices — exact by the
// batched-execution contract (core.Exec is bit-identical at any limit) and
// by sole-runnability (the scheduler could only have redispatched the same
// rank). Jobs with an OnAdvance observer keep slicing regardless,
// preserving sample cadence, as does any node with a UPC threshold handler.
func (j *Job) SetFastForward(on bool) { j.noFF = !on }

// MarkExternal tells the memo that state outside the simulated machine
// vector (UPC counter registers, host-side observers) was mutated mid-run.
// Before the first cut this is a no-op — recordings only open at cuts.
// Later it poisons the in-flight recording and disables the memo for the
// rest of the run. During a replayed epoch it panics: the mutation would
// have observed mid-epoch live state that replay does not reconstruct.
// Safe to call from rank bodies.
func (j *Job) MarkExternal() {
	m := j.memo
	if m == nil {
		return
	}
	if m.replayed != nil {
		panic("mpi: epoch memo: external state mutation during a replayed epoch (region-bracketed counter sessions require -no-epochmemo)")
	}
	if !m.cutSeen {
		return
	}
	m.poisoned.Store(true)
}

// PerfStats reports what the fast-forward and memo layers did during Run.
type PerfStats struct {
	// FFDispatches counts compute ops that ran to completion in one
	// dispatch; FFCycles is the simulated cycles they covered.
	FFDispatches, FFCycles uint64
	// Epoch memo cut and store counts for this job only. Every miss ran its
	// epoch live; FirstSights counts the misses of a run whose identity had
	// never been seen (one mark left, nothing probed or recorded), the rest
	// recorded. Stores counts entries, never marks. Corrupt counts probes
	// whose cached entry failed its checksum (evicted, re-simulated and
	// re-recorded).
	EpochMemoHits, EpochMemoMisses, EpochMemoFirstSights, EpochMemoStores, EpochMemoCorrupt uint64
	// The memo's whole-machine passes: Flattens reads the machine into the
	// state vector (and hashes it), Materializations writes the vector back.
	// Everything else the memo does is proportional to an epoch's diff.
	EpochMemoFlattens, EpochMemoMaterializations uint64
}

// Perf returns this job's fast-forward and memo counters.
func (j *Job) Perf() PerfStats {
	var s PerfStats
	for _, r := range j.ranks {
		s.FFDispatches += r.ffDispatches
		s.FFCycles += r.ffCycles
	}
	if m := j.memo; m != nil {
		s.EpochMemoHits, s.EpochMemoMisses, s.EpochMemoFirstSights = m.hits, m.misses, m.firstSights
		s.EpochMemoStores, s.EpochMemoCorrupt = m.stores, m.corrupt
		s.EpochMemoFlattens, s.EpochMemoMaterializations = m.flattens, m.materializations
	}
	return s
}

// initRunModes resolves the fast-forward and memo gates once per Run,
// after all observers are installed.
func (j *Job) initRunModes() {
	j.ffOn = !j.noFF && j.onAdvance == nil
	if j.memoCache == nil || j.onAdvance != nil || j.onSpan != nil {
		return
	}
	j.memo = &epochMemo{j: j, cache: j.memoCache, cfgKey: j.memoCfgKey, rs: make([]memoRank, len(j.ranks))}
}

// releaseVectors writes back whatever the vector is still ahead by — a body
// that panicked or deadlocked mid-chain leaves it so — and hands the state
// vectors back to the pool. Run calls it on its way out, when every rank
// goroutine has made its final yield and nothing can reach the memo's
// buffers any more.
func (m *epochMemo) releaseVectors() {
	m.materialize()
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
		total := 0
		for _, id := range j.nodeIDs {
			total += j.m.Nodes[id].StateLen()
		}
		m.vec = getVec(total)
	}
	h := statehash.New()
	i := 0
	for _, id := range j.nodeIDs {
		n := j.m.Nodes[id].ReadState(m.vec[i:])
		h.Words(m.vec[i : i+n])
		i += n
	}
	m.flattens++
	return h.Sum()
}

// materialize writes vec back to the machine if replayed epochs have left
// it ahead: the one O(machine) step of a chain of hits.
func (m *epochMemo) materialize() {
	if !m.ahead {
		return
	}
	m.ahead = false
	i := 0
	for _, id := range m.j.nodeIDs {
		i += m.j.m.Nodes[id].WriteState(m.vec[i:])
	}
	m.materializations++
}

// computeKey fingerprints the current cut: configuration, the machine-state
// digest d of a flatten just taken, per-rank histories, and the variable
// state the flatten cannot see.
func (m *epochMemo) computeKey(d statehash.Digest) epochmemo.Key {
	j := m.j
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, m.cfgKey)
	w(uint64(len(j.ranks)))
	w(d.Lo)
	w(d.Hi)
	for i := range m.rs {
		w(m.rs[i].hist)
	}
	var srcs []int
	for i, r := range j.ranks {
		w(r.brk)
		srcs = srcs[:0]
		for src, q := range r.mailbox {
			if len(q) > 0 {
				srcs = append(srcs, src)
			}
		}
		sort.Ints(srcs)
		w(uint64(len(srcs)))
		for _, src := range srcs {
			q := r.mailbox[src]
			w(uint64(src))
			w(uint64(len(q)))
			for _, msg := range q {
				w(uint64(msg.bytes))
				w(msg.arrival)
			}
		}
		sts := m.rs[i].states
		w(uint64(len(sts)))
		for _, st := range sts {
			w(st.RngState())
			if st.Done() {
				w(1)
			} else {
				w(0)
			}
		}
	}
	var k epochmemo.Key
	h.Sum(k[:0])
	return k
}

// atCut is the memo's hook at every cut, called with the job's collState
// from the frame of the last rank to arrive. It closes an armed recording,
// probes the cache, and either replays an entry (replay true — the caller
// must skip the live completion and leave releases at zero) or lets the
// coming epoch run live (replay false — the caller completes live):
// recorded, unless this is the identity's first run, in which case nothing
// below the admission check ever executes.
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
	if m.replayed != nil {
		last = m.replayed.closeLast
	}
	firstCut := !m.cutSeen
	m.cutSeen = true
	if !m.disabled && (m.poisoned.Load() || m.anyUPCHandler()) {
		m.disabled = true
	}
	if m.disabled {
		m.materialize()
		m.recording = false
		m.haveChain = false
		m.replayed = nil
		return false, last
	}
	if firstCut {
		m.admitted = m.cache.Admit(m.cfgKey)
	}
	if !m.admitted {
		m.misses++
		m.firstSights++
		return false, last
	}

	var key epochmemo.Key
	switch {
	case m.recording:
		key = m.closeRecording(cs, arriver)
	case m.haveChain:
		key = m.chainKey
		m.haveChain = false
	default: // the run's first cut: nothing to inherit a key from
		key = m.computeKey(m.flatten())
	}

	if ent := m.replayed; ent != nil {
		if cs.op != ent.closeOp || cs.bytes != ent.closeBytes || cs.root != ent.closeRoot {
			panic(fmt.Sprintf("mpi: epoch memo divergence: replayed epoch closed with %v(bytes=%d, root=%d), job reached %v(bytes=%d, root=%d)",
				ent.closeOp, ent.closeBytes, ent.closeRoot, cs.op, cs.bytes, cs.root))
		}
		m.replayed = nil
	}

	rec, corrupt := m.cache.GetChecked(key)
	if ent, ok := rec.(*epochEntry); ok {
		m.hits++
		m.apply(ent)
		m.chainKey, m.haveChain = ent.nextKey, true
		m.replayed = ent
		return true, last
	}
	if corrupt {
		// The cache evicted a checksum-failed entry; re-simulate and
		// re-record, never replay damaged state.
		m.corrupt++
	}
	m.misses++
	m.materialize()
	m.openRecording(key)
	return false, last
}

func (m *epochMemo) anyUPCHandler() bool {
	for _, id := range m.j.nodeIDs {
		if m.j.m.Nodes[id].UPC.HasHandler() {
			return true
		}
	}
	return false
}

// openRecording arms the per-rank recorders over the coming epoch, with
// the current (pre-completion) machine vector as the diff base: the buffers
// trade places, so the closing flatten fills the other one and nothing is
// copied.
func (m *epochMemo) openRecording(key epochmemo.Key) {
	m.openKey = key
	m.recording = true
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

// closeRecording flattens the machine at the closing cut, stores the
// epoch's entry under the opening cut's key, and returns the closing cut's
// key (which the entry carries as nextKey, so later replays chain without
// rehashing).
func (m *epochMemo) closeRecording(cs *collState, arriver int) epochmemo.Key {
	j := m.j
	m.recording = false
	key := m.computeKey(m.flatten())

	ent := &epochEntry{
		closeOp:    cs.op,
		closeBytes: cs.bytes,
		closeRoot:  cs.root,
		closeLast:  arriver,
		nextKey:    key,
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
	if m.cache.Put(m.openKey, ent, ent.footprint()) {
		m.stores++
	}
	return key
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

// footprint is what the entry holds on the heap, from the capacities of
// its slices rather than their lengths, plus the store's bookkeeping for
// the key — the number the cache budget has to bound.
func (e *epochEntry) footprint() int64 {
	const (
		mapHeader = 48 // runtime map header
		mapSlot   = 48 // one int → slice-header slot, bucket overhead included
	)
	size := int64(epochmemo.SeenCost) + int64(unsafe.Sizeof(*e)) +
		int64(cap(e.diffIdx))*4 + int64(cap(e.diffVal))*8 +
		int64(cap(e.ranks))*int64(unsafe.Sizeof(entryRank{}))
	for i := range e.ranks {
		er := &e.ranks[i]
		size += int64(cap(er.recvSeq)+cap(er.rngSeq)) * 8
		if er.mailbox != nil {
			size += mapHeader
		}
		for _, q := range er.mailbox {
			size += mapSlot + int64(cap(q))*int64(unsafe.Sizeof(message{}))
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
	for _, id := range m.j.nodeIDs {
		nd := m.j.m.Nodes[id]
		nd.WriteClocks(m.vec[off:])
		off += nd.StateLen()
	}
	for i, r := range m.j.ranks {
		er := &ent.ranks[i]
		clear(r.mailbox)
		for src, q := range er.mailbox {
			r.mailbox[src] = append([]message(nil), q...)
		}
		rs := &m.rs[i]
		rs.replaying = true
		rs.skip = er.budget
		rs.recvSeq, rs.recvCur = er.recvSeq, 0
		rs.rngSeq, rs.rngCur = er.rngSeq, 0
	}
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

// collArrive folds a collective into the rank's history and closes its
// replay window: a replayed epoch must arrive at its closing collective
// with the skip budget and result cursors exactly exhausted.
func (r *Rank) collArrive(op collOp, bytes, root int) {
	m := r.job.memo
	if m == nil {
		return
	}
	rs := &m.rs[r.id]
	rs.fold(histColl, uint64(op), uint64(bytes)<<16|uint64(uint32(root)))
	if !rs.replaying {
		return
	}
	if rs.skip != 0 || rs.recvCur != len(rs.recvSeq) || rs.rngCur != len(rs.rngSeq) {
		panic(fmt.Sprintf("mpi: epoch memo divergence: rank %d reached %v with %d ops, %d recvs, %d execs of the replayed epoch unconsumed",
			r.id, op, rs.skip, len(rs.recvSeq)-rs.recvCur, len(rs.rngSeq)-rs.rngCur))
	}
	rs.replaying = false
}

// skipExec replays one Exec: the program is bound through the normal path
// (allocation layout and RNG seeding evolve exactly as live) and each
// bound state jumps to its recorded completion, with no simulated work.
func (r *Rank) skipExec(p *isa.Program) {
	rs := &r.job.memo.rs[r.id]
	if threads := r.job.m.Mode().ThreadsPerRank(); threads > 1 {
		states, ok := r.shards[p]
		if !ok {
			states = make([]*core.ExecState, threads)
			for t := 0; t < threads; t++ {
				states[t] = r.bindShard(p, t, threads)
			}
			r.shards[p] = states
		}
		for _, st := range states {
			st.SkipToEnd(rs.nextRng(r))
		}
		return
	}
	st, ok := r.bound[p]
	if !ok {
		st = r.bindShard(p, 0, 1)
		r.bound[p] = st
	}
	st.SkipToEnd(rs.nextRng(r))
}

// recordExec captures the post-execution RNG position of every state the
// Exec drove, in shard order.
func (r *Rank) recordExec(p *isa.Program) {
	rs := &r.job.memo.rs[r.id]
	rs.recOps++
	if states, ok := r.shards[p]; ok {
		for _, st := range states {
			rs.recRng = append(rs.recRng, st.RngState())
		}
		return
	}
	rs.recRng = append(rs.recRng, r.bound[p].RngState())
}

// fastForwardable reports whether the rank may run a compute op to
// completion in one dispatch: fast-forward is on, nothing samples dispatch
// cadence, and the rank is the only runnable rank of the job, so the
// scheduler could only redispatch it anyway.
func (r *Rank) fastForwardable() bool {
	j := r.job
	if !j.ffOn || r.nd.UPC.HasHandler() {
		return false
	}
	for _, o := range j.ranks {
		if o != r && o.status == statusReady {
			return false
		}
	}
	return true
}
