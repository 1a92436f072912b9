// Package core models one PowerPC 450 processor core of a Blue Gene/P
// compute node: a 2-way superscalar in-order core with an attached
// dual-pipeline SIMD floating-point unit ("double hummer"), a private 32 KB
// L1 data cache and a private stream-prefetching L2 front end.
//
// The core executes virtual-ISA op streams (see the isa package), charging
// cycles from a simple but faithful issue model — one FPU instruction and
// one load/store or integer instruction can issue per cycle, divides
// occupy the FPU pipe — plus memory stalls observed from the cache
// hierarchy. Every dynamic op increments the per-class counters that the
// node wires into the Universal Performance Counter unit.
package core

import (
	"fmt"

	"bgpsim/internal/cache"
	"bgpsim/internal/isa"
	"bgpsim/internal/rng"
)

// LineBytes is the L2/L3/DDR line size; all traffic below L1 moves in
// lines of this size.
const LineBytes = 128

const lineShift = 7

// ClockHz is the PPC450 core frequency (850 MHz).
const ClockHz = 850e6

// Lower is the shared memory system below the core's private L1/L2 — the
// node's L3 and DDR controllers. It is implemented by the node package.
type Lower interface {
	// ReadLine fetches a 128-byte line on a demand miss of core id and
	// returns the stall cycles the core observes.
	ReadLine(coreID int, addr uint64) uint64
	// WriteLine delivers a dirty L1 victim line; the write is posted, so
	// only queue-admission stall is returned.
	WriteLine(coreID int, addr uint64) uint64
	// PrefetchLine fetches a line on behalf of the core's L2 stream
	// prefetcher. The core does not stall; traffic is still counted.
	PrefetchLine(coreID int, addr uint64)
}

// Params holds the core timing and private-cache configuration.
type Params struct {
	// L1 is the L1 data-cache geometry.
	L1 cache.Config
	// Prefetch is the L2 stream-prefetcher configuration.
	Prefetch cache.PrefetchConfig
	// L2HitLatency is the stall for a demand miss satisfied by the
	// prefetch buffer.
	L2HitLatency uint64
	// DivOccupancy is the extra FPU-pipe occupancy of a divide.
	DivOccupancy uint64
	// BranchOverhead is the extra issue cost per branch.
	BranchOverhead uint64
	// Interpreter forces the reference per-trip interpreter for every
	// program executed on the core, bypassing the batched execution
	// engine; it is the one selector (bgp.RunConfig.Interpreter sets it).
	// Both engines produce bit-identical counters, cycles, and cache
	// state; the flag exists so equivalence suites and debugging sessions
	// can diff them.
	Interpreter bool
}

// DefaultParams returns PPC450-like parameters: 32 KB 16-way L1 with
// 128-byte lines, a 15-stream 2 KB prefetch buffer, 12-cycle L2 hits and
// ~25-cycle divides.
func DefaultParams() Params {
	return Params{
		L1: cache.Config{
			Name:        "L1D",
			SizeBytes:   32 << 10,
			LineBytes:   LineBytes,
			Ways:        16,
			WriteBack:   true,
			Replacement: cache.ReplaceRoundRobin, // PPC450 L1 policy
		},
		Prefetch:       cache.DefaultPrefetchConfig(),
		L2HitLatency:   12,
		DivOccupancy:   25,
		BranchOverhead: 1,
	}
}

// Route is what a loop's ops make of it, resolved once per loop execution
// by prepLoop: the reference per-trip interpreter, or the shape the one
// batched loop (runBatched) takes on it — no memory ops, every memory op
// line-coalescible, or at least one that is not.
type Route uint8

// The engine routes, in ReadState window order.
const (
	RouteInterp Route = iota
	RouteClosedForm
	RouteTracked
	RouteCoalesced
	NumRoutes
)

var routeNames = [NumRoutes]string{
	RouteInterp: "interp", RouteClosedForm: "closed_form",
	RouteTracked: "tracked", RouteCoalesced: "coalesced",
}

func (r Route) String() string { return routeNames[r] }

// Core is one simulated processor core.
type Core struct {
	id     int
	params Params
	lower  Lower

	// L1 is the private L1 data cache.
	L1 *cache.Cache
	// L2 is the private stream prefetcher.
	L2 *cache.Prefetcher
	// Snoop is the core's snoop filter, probed by the node on remote
	// writes.
	Snoop *cache.SnoopFilter

	// Mix holds the free-running per-class dynamic op counters.
	Mix isa.Mix
	// Cycles is the free-running cycle counter; it doubles as the
	// chip's Time Base register for this core.
	Cycles uint64
	// EngineRoutes counts loop executions per engine route, free-running
	// like Mix. Each loop counts once per execution, at preparation time,
	// toward the route its whole trip space is dispatched to.
	EngineRoutes [NumRoutes]uint64

	// want is the reusable prefetch-proposal buffer handed to the L2
	// prefetcher on every L1 miss.
	want []uint64
}

// New creates core id above the given memory system.
func New(id int, params Params, lower Lower) *Core {
	if lower == nil {
		panic("core: nil lower memory system")
	}
	params.L1.Name = fmt.Sprintf("L1D.%d", id)
	c := &Core{
		id:     id,
		params: params,
		lower:  lower,
		L1:     cache.New(params.L1),
		L2:     cache.NewPrefetcher(params.Prefetch),
		Snoop:  cache.NewSnoopFilter(cache.SnoopFilterEntries),
	}
	c.want = make([]uint64, 0, c.L2.Depth())
	return c
}

// ID returns the core index on its node.
func (c *Core) ID() int { return c.id }

// TimeBase returns the current cycle count (the Time Base register).
func (c *Core) TimeBase() uint64 { return c.Cycles }

// AdvanceCycles charges n cycles of non-ISA work (system services, the
// counter-interface library's own overhead).
func (c *Core) AdvanceCycles(n uint64) { c.Cycles += n }

// WaitUntil advances the core's clock to at least cycle, modelling time
// spent blocked (e.g. waiting for a message).
func (c *Core) WaitUntil(cycle uint64) {
	if cycle > c.Cycles {
		c.Cycles = cycle
	}
}

// ExecState is the resumable execution cursor of a program bound to a
// rank's address space. The machine scheduler advances ranks in bounded
// time slices, so execution must be interruptible between loop trips.
type ExecState struct {
	prog       *isa.Program
	regionBase []uint64
	rng        *rng.Source

	// shard/nshards select the slice of every loop's trips this state
	// executes — the mechanism behind OpenMP-style loop-parallel
	// execution across a node's cores (1/1 for a whole program).
	shard, nshards int64

	loop    int
	trip    int64
	tripEnd int64
	cursors []int64 // per-op region offsets of the current loop

	issue   uint64  // precomputed issue cycles per trip of current loop
	route   Route   // engine route of the current loop
	memops  []memOp // memory ops of the current loop, in body order
	prepped bool
	done    bool
}

// memOp is the batched engine's per-memory-op view of the current loop.
type memOp struct {
	oi     int    // index into the loop body (and the cursor array)
	stride int64  // per-trip address increment, reduced mod size
	size   int64  // region extent in bytes
	base   uint64 // region base address
	store  bool
	single bool // the whole region fits in one cache line
	track  bool // line-coalescible (isa.Op.Coalescible): holds line proofs

	// Line proof of a coalescible op (valid within one Exec slice only; see
	// runBatched).
	line  uint64 // the op's current resident L1 line
	left  int64  // trips left on that line
	pend  uint64 // deferred hit count, flushed into L1.Hits at slice end
	valid bool   // line is known resident

	// Region-residency proof of a non-coalescible op (random
	// gathers/scatters and cross-line strides; see runBatched): res holds
	// one bit per region line, set when the op's own access this slice
	// left the line resident — and, for a store op, its dirty bit set —
	// with no later miss having evicted it. An access to a proven line is
	// a pure L1 hit by construction. Only built for regions up to
	// maxResLines lines; larger regions miss too often for the proof to
	// pay for its upkeep.
	res      []uint64
	baseLine uint64 // region base line number (base >> lineShift)
	lines    uint64 // region length in lines
}

// maxResLines bounds the regions the residency-proof bitmask covers
// (2 MB of region per 4 KB of mask); beyond it the mask's slice-entry
// clear and per-victim upkeep outweigh the dwindling proven-hit rate.
const maxResLines = 1 << 14

// Done reports whether the program has run to completion.
func (s *ExecState) Done() bool { return s.done }

// Rewind resets the execution cursor so the program can run again in the
// same address bindings (iterative benchmarks re-execute their phases; the
// arrays must stay where they are so caches remain warm).
func (s *ExecState) Rewind() {
	s.loop, s.trip = 0, 0
	s.prepped = false
	s.done = len(s.prog.Loops) == 0
}

// shardRange returns the trip interval [start, end) of the state's shard.
func (s *ExecState) shardRange(trips int64) (start, end int64) {
	return trips * s.shard / s.nshards, trips * (s.shard + 1) / s.nshards
}

// Program returns the bound program.
func (s *ExecState) Program() *isa.Program { return s.prog }

// Bind lays the program's regions out in a rank's address space starting at
// base (aligned up to a line boundary) and returns a fresh execution cursor.
// The seed determines the random-access streams.
func Bind(p *isa.Program, base uint64, seed uint64) (*ExecState, error) {
	return BindShard(p, base, seed, 0, 1)
}

// BindShard binds the program like Bind but restricts execution to shard
// (0 ≤ shard < nshards) of every loop's trip space: trips are divided into
// contiguous chunks, with sequential address streams offset accordingly.
// All shards of one program share the same region layout, so threads of a
// parallel region operate on the same arrays.
func BindShard(p *isa.Program, base, seed uint64, shard, nshards int) (*ExecState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nshards < 1 || shard < 0 || shard >= nshards {
		return nil, fmt.Errorf("core: invalid shard %d of %d", shard, nshards)
	}
	st := &ExecState{
		prog:       p,
		regionBase: make([]uint64, len(p.Regions)),
		rng:        rng.New(seed).Derive(uint64(shard)),
		shard:      int64(shard),
		nshards:    int64(nshards),
	}
	addr := (base + LineBytes - 1) &^ (LineBytes - 1)
	for i, r := range p.Regions {
		st.regionBase[i] = addr
		addr += (r.Size + LineBytes - 1) &^ (LineBytes - 1)
	}
	if len(p.Loops) == 0 {
		st.done = true
	}
	return st, nil
}

// FootprintBytes returns the total bytes of the program's regions.
func FootprintBytes(p *isa.Program) uint64 {
	var n uint64
	for _, r := range p.Regions {
		n += (r.Size + LineBytes - 1) &^ (LineBytes - 1)
	}
	return n
}

// Exec advances the bound program on this core until it completes or the
// core's cycle counter reaches limit (limit 0 means run to completion).
// It reports whether the program completed.
//
// Execution is batched by default (runBatched): memory ops that hold a
// proof of L1 residency defer their hits instead of consulting the cache,
// and whole trip ranges are charged at once while every op of the loop
// holds one. The batching is exact: counters, cycles, cache and prefetcher
// state, and the trip at which a limit preempts execution are bit-identical
// to interpreted execution; Params.Interpreter, the one selector, runs the
// interpreter to verify exactly that.
func (c *Core) Exec(st *ExecState, limit uint64) bool {
	if st.done {
		return true
	}
	p := st.prog
	for st.loop < len(p.Loops) {
		l := &p.Loops[st.loop]
		if !st.prepped {
			c.prepLoop(st, l)
			c.EngineRoutes[st.route]++
		}
		var finished bool
		if st.route == RouteInterp {
			finished = c.runTrips(st, l, limit)
		} else {
			finished = c.runBatched(st, l, limit)
		}
		if !finished {
			return false
		}
		st.loop++
		st.trip = 0
		st.prepped = false
	}
	st.done = true
	return true
}

// runTrips is the reference per-trip interpreter: it re-walks the loop
// body once per trip. All batched kernels are defined as exact
// accelerations of this loop.
func (c *Core) runTrips(st *ExecState, l *isa.Loop, limit uint64) bool {
	for st.trip < st.tripEnd {
		if limit > 0 && c.Cycles >= limit {
			return false
		}
		c.step(st, l)
	}
	return true
}

// step executes one loop trip exactly as the interpreter defines it.
func (c *Core) step(st *ExecState, l *isa.Loop) {
	c.Cycles += st.issue
	for oi := range l.Body {
		op := &l.Body[oi]
		c.Mix[op.Class]++
		if op.Class.IsMem() {
			addr := st.nextAddr(oi, op)
			c.Cycles += c.access(nil, addr, op.Class.IsStore())
		}
	}
	st.trip++
}

// runBatched is the batched engine: one loop that accelerates runTrips
// exactly. Per trip, each memory op either rides a proof that its access is
// a pure L1 hit — a cursor add and a deferred count, no cache lookup — or
// pays a real access. There are two kinds of proof:
//
//   - A line proof, for line-coalescible ops (memOp.track). After the op's
//     real access its line is resident (write-allocate) and, for a store,
//     dirty; the op then stays on that line for sameLineTrips further trips.
//   - A region-residency bit, for random and cross-line ops (memOp.res): the
//     op's own access this slice left that line resident, whichever trip
//     comes back to it.
//
// Either proof holds until a later miss evicts the line, which access
// watches for by comparing every victim against the loop's proofs.
//
// The window rule: after a trip on which every op holds a line proof, the
// trips until the earliest line departure are all-hit trips and are charged
// at once — issue cycles by multiplication, hits into the deferred counts.
// A loop without memory ops has nothing to depart from, so its window is
// the whole remaining trip space (closed-form stepping); a loop with a
// non-coalescible op never opens one, since that op never holds a line
// proof (RouteTracked; the window scan is skipped outright).
//
// The deferral is exact because the L1 is round-robin: a hit touches only
// the Hits counter (order-free) and the dirty bit, and the dirty bit is
// already set by the op's own proving access (same store flag); prepLoop
// routes any other L1 policy to the interpreter. Deferred hit and op counts
// are flushed before every return, so any observer between Exec slices (UPC
// sampling, dumps, snoops) sees interpreter-identical state. No proof
// survives a slice boundary — snoop invalidations happen between slices, so
// every slice re-proves residency with real accesses.
func (c *Core) runBatched(st *ExecState, l *isa.Loop, limit uint64) bool {
	for i := range st.memops {
		m := &st.memops[i]
		m.valid = false
		m.pend = 0
		clear(m.res)
	}
	bulk := st.route != RouteTracked
	trip0 := st.trip
	for st.trip < st.tripEnd && (limit == 0 || c.Cycles < limit) {
		c.Cycles += st.issue
		for i := range st.memops {
			m := &st.memops[i]
			if m.valid && m.left > 0 {
				// Provably a hit: same line, no eviction since.
				m.left--
				m.pend++
				next := st.cursors[m.oi] + m.stride
				if next >= m.size {
					next -= m.size
				} else if next < 0 {
					next += m.size
				}
				st.cursors[m.oi] = next
				continue
			}
			off := st.cursors[m.oi]
			addr := st.nextAddr(m.oi, &l.Body[m.oi])
			if m.res != nil {
				idx := addr>>lineShift - m.baseLine
				if m.res[idx>>6]&(1<<(idx&63)) != 0 {
					// Proven resident (and, for a store, already
					// dirty): the interpreter's access would be a
					// pure hit with no stall and no state change.
					c.L1.Hits++
					continue
				}
				c.Cycles += c.access(st.memops, addr, m.store)
				m.res[idx>>6] |= 1 << (idx & 63)
				continue
			}
			c.Cycles += c.access(st.memops, addr, m.store)
			if m.track {
				m.valid = true
				m.line = addr >> lineShift
				m.left = m.sameLineTrips(off)
			}
		}
		st.trip++
		if !bulk {
			continue
		}
		// A miss on this trip may have evicted another op's line (the victim
		// watch cleared its proof): then no window opens and the next trip
		// re-proves residency with a real access.
		window := st.tripEnd - st.trip
		for i := range st.memops {
			m := &st.memops[i]
			if !m.valid {
				window = 0
				break
			}
			if m.left < window {
				window = m.left
			}
		}
		if window <= 0 || limit > 0 && c.Cycles >= limit {
			continue
		}
		n := c.limitTrips(limit, st.issue, window)
		c.Cycles += st.issue * uint64(n)
		for i := range st.memops {
			m := &st.memops[i]
			m.pend += uint64(n)
			m.left -= n
			if m.size > 0 {
				st.cursors[m.oi] = wrapOffset(st.cursors[m.oi]+m.stride*n, m.size)
			}
		}
		st.trip += n
	}
	// Post the deferred hit counts into the L1 counter and the op counts of
	// the slice's completed trips into Mix: the counters are only observed
	// between Exec slices, every return sits on a trip boundary, and
	// per-completed-trip totals there are exactly what the interpreter's
	// per-op increments sum to.
	for i := range st.memops {
		m := &st.memops[i]
		c.L1.Hits += m.pend
		m.pend = 0
	}
	if trips := uint64(st.trip - trip0); trips > 0 {
		for i := range l.Body {
			c.Mix[l.Body[i].Class] += trips
		}
	}
	return st.trip == st.tripEnd
}

// limitTrips bounds a batch of n uniform trips (issue cycles each, no
// stalls) by the scheduler limit: it returns how many of them the
// interpreter would execute before its trip-boundary limit check fires.
// The caller guarantees c.Cycles < limit when limit > 0, so at least one
// trip of a non-empty batch always runs.
func (c *Core) limitTrips(limit uint64, issue uint64, n int64) int64 {
	if limit == 0 || issue == 0 {
		return n
	}
	k := (limit - c.Cycles + issue - 1) / issue
	if k < uint64(n) {
		return int64(k)
	}
	return n
}

// sameLineTrips returns how many trips after the current one the op's
// address stays within the cache line of its current offset: the upcoming
// offsets off+stride, off+2·stride, … neither leave the line nor wrap
// around the region for that many trips. Offsets map to in-line positions
// directly because region bases are line-aligned.
func (m *memOp) sameLineTrips(off int64) int64 {
	if m.single {
		// The whole region lives in one resident line; every future trip
		// stays on it.
		return 1 << 62
	}
	const mask = LineBytes - 1
	var inLine, toWrap int64
	if m.stride > 0 {
		inLine = (mask - off&mask) / m.stride
		toWrap = (m.size - 1 - off) / m.stride
	} else {
		a := -m.stride
		inLine = (off & mask) / a
		toWrap = off / a
	}
	if toWrap < inLine {
		return toWrap
	}
	return inLine
}

// wrapOffset normalizes a region offset into [0, size).
func wrapOffset(off, size int64) int64 {
	off %= size
	if off < 0 {
		off += size
	}
	return off
}

// prepLoop precomputes the per-trip issue cost of a loop, resets the per-op
// address cursors, and resolves the loop's engine route from its ops.
func (c *Core) prepLoop(st *ExecState, l *isa.Loop) {
	var fp, mem, other, div, branch int
	for _, op := range l.Body {
		switch {
		case op.Class.IsFP():
			fp++
			if op.Class == isa.FPDiv || op.Class == isa.FPSIMDDiv {
				div++
			}
		case op.Class.IsMem():
			mem++
		case op.Class == isa.Branch:
			other++
			branch++
		default:
			other++
		}
	}
	total := fp + mem + other
	issue := (total + 1) / 2 // 2-way issue upper bound
	if fp > issue {
		issue = fp // one FPU instruction per cycle
	}
	if mem > issue {
		issue = mem // one load/store per cycle
	}
	st.issue = uint64(issue) +
		uint64(div)*c.params.DivOccupancy +
		uint64(branch)*c.params.BranchOverhead
	start, end := st.shardRange(l.Trips)
	st.trip, st.tripEnd = start, end
	if cap(st.cursors) < len(l.Body) {
		st.cursors = make([]int64, len(l.Body))
	} else {
		st.cursors = st.cursors[:len(l.Body)]
	}
	st.memops = st.memops[:0]
	coalescible := true // holds while every memory op so far is
	for i, op := range l.Body {
		st.cursors[i] = 0
		if !op.Class.IsMem() {
			continue
		}
		// Sequential streams of a shard start where the preceding
		// shards' trips would have advanced the cursor.
		off := op.Offset
		if op.Pat == isa.Seq || op.Pat == isa.Strided {
			off += start * op.Stride
		}
		size := int64(st.prog.Regions[op.Region].Size)
		if off != 0 && size > 0 {
			st.cursors[i] = wrapOffset(off, size)
		}
		m := memOp{
			oi:     i,
			stride: op.Stride,
			size:   size,
			base:   st.regionBase[op.Region],
			store:  op.Class.IsStore(),
			single: size <= LineBytes,
			track:  op.Coalescible(st.prog.Regions[op.Region].Size, LineBytes),
		}
		if size > 0 {
			m.stride = op.Stride % size
		}
		coalescible = coalescible && m.track
		if !m.track && size > 0 {
			if lines := (uint64(size) + LineBytes - 1) >> lineShift; lines <= maxResLines {
				m.res = make([]uint64, (lines+63)/64)
				m.baseLine = m.base >> lineShift
				m.lines = lines
			}
		}
		st.memops = append(st.memops, m)
	}
	switch {
	case c.params.Interpreter || c.params.L1.Replacement != cache.ReplaceRoundRobin:
		// The batched engine's deferred-hit accounting assumes the PPC450's
		// round-robin L1 (hits touch no replacement state); any other
		// policy takes the always-exact interpreter.
		st.route = RouteInterp
	case len(st.memops) == 0:
		st.route = RouteClosedForm
	case coalescible:
		st.route = RouteCoalesced
	default:
		st.route = RouteTracked
	}
	st.prepped = true
}

// nextAddr produces the address of op oi's next dynamic instance.
func (s *ExecState) nextAddr(oi int, op *isa.Op) uint64 {
	base := s.regionBase[op.Region]
	size := int64(s.prog.Regions[op.Region].Size)
	if size <= 0 {
		return base
	}
	switch op.Pat {
	case isa.Random:
		off := int64(s.rng.Uint64n(uint64(size))) &^ 7
		return base + uint64(off)
	default: // Seq, Strided
		off := s.cursors[oi]
		// Strides are smaller than the region in practice, so the wrap is
		// a compare-subtract instead of a 64-bit modulo (this is the
		// hottest address computation in the interpreter).
		next := off + op.Stride
		if next >= size {
			next -= size
			if next >= size {
				next %= size
			}
		} else if next < 0 {
			next += size
			if next < 0 {
				next = wrapOffset(next, size)
			}
		}
		s.cursors[oi] = next
		return base + uint64(off)
	}
}

// access performs one data access, returning the stall cycles beyond issue.
// It is the one L1-miss path of every engine route: the victim line, the
// snoop filter, the dirty write-back, the L2 probe with its stream
// detector, the demand fetch and the prefetch fills, in that order. watch
// holds the memory ops whose residency proofs (runBatched) a victim must
// revoke; the interpreter holds no proofs and passes nil.
func (c *Core) access(watch []memOp, addr uint64, write bool) uint64 {
	r := c.L1.Access(addr, write)
	if r.Hit {
		return 0
	}
	if r.VictimValid {
		v := r.Victim >> lineShift
		for i := range watch {
			m := &watch[i]
			if m.valid && m.line == v {
				m.valid = false
			}
			if m.res != nil {
				// v-baseLine underflows past lines for lines below
				// the region, so one compare covers both bounds.
				if idx := v - m.baseLine; idx < m.lines {
					m.res[idx>>6] &^= 1 << (idx & 63)
				}
			}
		}
	}
	c.Snoop.Track(addr, lineShift)
	var stall uint64
	if r.VictimValid && r.VictimDirty {
		stall += c.lower.WriteLine(c.id, r.Victim)
	}
	line := addr >> lineShift
	hit, want := c.L2.Access(line, c.want)
	if hit {
		stall += c.params.L2HitLatency
	} else {
		stall += c.lower.ReadLine(c.id, addr&^(LineBytes-1))
	}
	for _, w := range want {
		c.lower.PrefetchLine(c.id, w<<lineShift)
		c.L2.FillWanted(w)
	}
	return stall
}
