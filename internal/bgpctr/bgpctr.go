// Package bgpctr is the performance-counter interface library — the
// artifact the paper contributes (§IV). It wraps the node's Universal
// Performance Counter unit behind the four calls of the paper's API:
//
//	BGP_Initialize()  →  Initialize(node, core, mode)
//	BGP_Start(set)    →  Session.Start(set)
//	BGP_Stop(set)     →  Session.Stop(set)
//	BGP_Finalize()    →  Session.Finalize()
//
// Each Start/Stop pair brackets a code region and constitutes a "set";
// Finalize collects the per-set counter deltas of all 256 counters into the
// node's dump, which WriteDumps stores as one binary file per node. Because
// the counters are globally accessible on the chip, one session per node
// serves all ranks running there; the even/odd node-card mode split lets a
// single job monitor 512 of the 1024 events (half the event space on
// even-numbered nodes, the other half on odd ones).
//
// The library charges its own measured overhead to the monitoring core:
// 196 cycles for the initialize+start+stop path, matching the paper's
// Time-Base-verified measurement, with each additional start/stop pair far
// cheaper.
package bgpctr

import (
	"fmt"
	"math"
	"sort"

	"bgpsim/internal/core"
	"bgpsim/internal/node"
	"bgpsim/internal/upc"
)

// Overhead charged to the monitoring core, in cycles. The paper measures
// the total initialize+start+stop cost at 196 machine cycles.
const (
	InitializeOverhead = 150
	StartOverhead      = 20
	StopOverhead       = 26
)

// Session is the per-node instrumentation state.
type Session struct {
	nd     *node.Node
	coreID int
	mode   upc.Mode

	sets  map[int]*setData
	order []int
	open  map[int]*[upc.NumCounters]uint64 // start snapshots of open sets

	external func() // see SetExternalHook

	finalized bool
}

type setData struct {
	id         int
	pairs      uint64
	firstCycle uint64
	lastCycle  uint64
	counts     [upc.NumCounters]uint64
}

// Initialize selects the UPC counter mode, clears and starts the unit, and
// returns a session whose library overhead is charged to the given core
// (the node's monitoring thread).
func Initialize(n *node.Node, coreID int, mode upc.Mode) *Session {
	if coreID < 0 || coreID >= node.NumCores {
		panic(fmt.Sprintf("bgpctr: invalid monitoring core %d", coreID))
	}
	if n.UPC.Running() {
		n.UPC.Stop()
	}
	n.UPC.SetMode(mode)
	n.UPC.ClearAll()
	n.UPC.Start()
	n.Cores[coreID].AdvanceCycles(InitializeOverhead)
	return &Session{
		nd:     n,
		coreID: coreID,
		mode:   mode,
		sets:   make(map[int]*setData),
		open:   make(map[int]*[upc.NumCounters]uint64),
	}
}

// SetExternalHook installs a callback fired by every session operation that
// reads or advances machine state outside the pure rank execution path
// (Start, Stop, Finalize). The MPI integration points it at
// mpi.Job.MarkExternal so the epoch memo knows when counter-library calls
// touch UPC-visible state mid-run: the whole-application bracketing falls
// strictly before the first and after the last collective, where the hook
// is free, while region-bracketing bodies disable memoization for the rest
// of the run instead of replaying epochs their counter reads depended on.
func (s *Session) SetExternalHook(fn func()) { s.external = fn }

func (s *Session) markExternal() {
	if s.external != nil {
		s.external()
	}
}

// Node returns the instrumented node.
func (s *Session) Node() *node.Node { return s.nd }

// Mode returns the counter mode the session monitors.
func (s *Session) Mode() upc.Mode { return s.mode }

// Start begins (or resumes) monitoring region set. Starting an already-open
// set, or a set the dump's u32 id field cannot hold, is an error in the
// application's bracketing and panics.
func (s *Session) Start(set int) {
	if s.finalized {
		panic("bgpctr: Start after Finalize")
	}
	if set < 0 || uint64(set) > math.MaxUint32 {
		panic(fmt.Sprintf("bgpctr: set %d outside [0, 2^32)", set))
	}
	if _, isOpen := s.open[set]; isOpen {
		panic(fmt.Sprintf("bgpctr: set %d started twice without Stop", set))
	}
	s.markExternal()
	s.nd.Cores[s.coreID].AdvanceCycles(StartOverhead)
	snap := new([upc.NumCounters]uint64)
	s.nd.UPC.ReadAll(snap)
	s.open[set] = snap
	if _, known := s.sets[set]; !known {
		s.sets[set] = &setData{id: set, firstCycle: s.nd.Cores[s.coreID].TimeBase()}
		s.order = append(s.order, set)
	}
}

// Stop ends monitoring region set, folding the counter deltas since the
// matching Start into the set's totals.
func (s *Session) Stop(set int) {
	snap, isOpen := s.open[set]
	if !isOpen {
		panic(fmt.Sprintf("bgpctr: Stop of set %d without Start", set))
	}
	delete(s.open, set)
	s.markExternal()
	s.nd.Cores[s.coreID].AdvanceCycles(StopOverhead)
	var now [upc.NumCounters]uint64
	s.nd.UPC.ReadAll(&now)
	d := s.sets[set]
	for i := 0; i < upc.NumCounters; i++ {
		d.counts[i] += now[i] - snap[i]
	}
	d.pairs++
	d.lastCycle = s.nd.Cores[s.coreID].TimeBase()
}

// OpenSets returns the ids of sets started but not yet stopped.
func (s *Session) OpenSets() []int {
	out := make([]int, 0, len(s.open))
	for id := range s.open {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// SetCounts returns the accumulated deltas of a closed set (nil if the set
// is unknown).
func (s *Session) SetCounts(set int) *[upc.NumCounters]uint64 {
	d, ok := s.sets[set]
	if !ok {
		return nil
	}
	out := d.counts
	return &out
}

// Finalize stops the unit and returns the node's dump — the file the
// post-processing tools mine, with its sets in first-start order. Open sets
// are an instrumentation bug and cause an error, as do more sets than a
// dump file holds. A session cannot be used after Finalize.
func (s *Session) Finalize() (*Dump, error) {
	if s.finalized {
		return nil, fmt.Errorf("bgpctr: node %d finalized twice", s.nd.ID())
	}
	if len(s.open) > 0 {
		return nil, fmt.Errorf("bgpctr: node %d has unterminated sets %v", s.nd.ID(), s.OpenSets())
	}
	if len(s.order) > maxDumpSets {
		return nil, fmt.Errorf("bgpctr: node %d has %d sets, more than a dump holds (%d)", s.nd.ID(), len(s.order), maxDumpSets)
	}
	s.finalized = true
	s.markExternal()
	s.nd.UPC.Stop()
	d := &Dump{
		NodeID:  s.nd.ID(),
		Mode:    s.mode,
		ClockHz: core.ClockHz,
		Sets:    make([]DumpSet, len(s.order)),
	}
	for i, id := range s.order {
		set, out := s.sets[id], &d.Sets[i]
		out.ID, out.Pairs, out.FirstCycle, out.LastCycle = set.id, set.pairs, set.firstCycle, set.lastCycle
		out.Counts = set.counts
	}
	return d, nil
}
