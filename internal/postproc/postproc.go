// Package postproc implements the data-mining side of the paper's toolchain
// (§IV): it reads the binary counter dumps written at each node, validates
// them (record counts, record lengths, value ranges), computes per-counter
// statistics (minimum, maximum, arithmetic mean) across nodes, derives the
// metrics the paper reports — MFLOPS, L3–DDR traffic and bandwidth, the
// dynamic FP instruction mix, SIMD share — and emits .csv files usable with
// any spreadsheet.
//
// Counters are aggregated by event mnemonic, not by raw counter index:
// because the interface library programs different counter modes on even
// and odd node cards, a given event is typically observed on half the
// nodes, and machine-wide totals are estimated by scaling the observed mean
// to the full node count (the paper's aggregation strategy).
package postproc

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/upc"
)

// maxPlausibleCount flags corrupt counter values during validation: no
// event source can plausibly exceed 2^56 in a real run.
const maxPlausibleCount = uint64(1) << 56

// Stats summarizes one event's values across the nodes that monitored it.
type Stats struct {
	// Min, Max and Mean are the per-node value statistics.
	Min, Max uint64
	Mean     float64
	// Nodes is the number of nodes that monitored the event.
	Nodes int
	// Sum is the total over monitoring nodes.
	Sum uint64
}

// SetAnalysis aggregates one instrumented region (set) across all nodes.
type SetAnalysis struct {
	// ID is the set number.
	ID int
	// Events maps event mnemonics to their cross-node statistics.
	Events map[string]Stats
	// MaxCycles is the largest per-core cycle count observed in the set
	// — the region's execution time in cycles.
	MaxCycles uint64
}

// Analysis is the mined result of one run's dumps.
type Analysis struct {
	// TotalNodes is the number of dump files (nodes) mined.
	TotalNodes int
	// ClockHz is the node clock (validated identical across dumps).
	ClockHz uint64
	// Sets are the instrumented regions by id.
	Sets map[int]*SetAnalysis
}

// Event returns the named event's stats in a set, or a zero Stats.
func (a *Analysis) Event(set int, name string) Stats {
	if sa := a.Sets[set]; sa != nil {
		return sa.Events[name]
	}
	return Stats{}
}

// EstimatedTotal estimates the machine-wide total of an event from the
// nodes that monitored it: mean × total nodes. Events monitored everywhere
// (both counter modes) return their exact sum.
func (a *Analysis) EstimatedTotal(set int, name string) float64 {
	s := a.Event(set, name)
	if s.Nodes == 0 {
		return 0
	}
	if s.Nodes == a.TotalNodes {
		return float64(s.Sum)
	}
	return s.Mean * float64(a.TotalNodes)
}

// eventSlots numbers the catalog's event mnemonics, each once however many
// modes carry it: slot[m][i] is the slot of counter i's event in mode m, or
// -1 for a reserved counter. Built once from the upc catalog, it lets
// Analyze fold a counter by index instead of by name.
var eventSlots = func() (t struct {
	slot   [upc.NumModes + 1][upc.NumCounters]int16 // the last row: a mode out of range, all reserved
	names  []string
	cycles []bool // the mnemonic ends in _CYCLES
}) {
	byName := make(map[string]int16)
	for m := range t.slot {
		for i := range t.slot[m] {
			name := upc.EventName(upc.MakeEventID(upc.Mode(m), i))
			if m == upc.NumModes || name == "BGP_RESERVED" {
				t.slot[m][i] = -1
				continue
			}
			k, ok := byName[name]
			if !ok {
				k = int16(len(t.names))
				byName[name] = k
				t.names = append(t.names, name)
				t.cycles = append(t.cycles, strings.HasSuffix(name, "_CYCLES"))
			}
			t.slot[m][i] = k
		}
	}
	return t
}()

// Analyze validates and mines a run's node dumps. Each set's events
// accumulate in per-slot Stats (eventSlots), written to its Events map once
// every dump is folded.
func Analyze(dumps []*bgpctr.Dump) (*Analysis, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("postproc: no dumps to analyze")
	}
	a := &Analysis{
		TotalNodes: len(dumps),
		ClockHz:    dumps[0].ClockHz,
		Sets:       make(map[int]*SetAnalysis),
	}
	stats := make(map[int][]Stats)
	seen := make(map[int]bool)
	want := len(dumps[0].Sets)
	for _, d := range dumps {
		if seen[d.NodeID] {
			return nil, fmt.Errorf("postproc: duplicate dump for node %d", d.NodeID)
		}
		seen[d.NodeID] = true
		if d.ClockHz != a.ClockHz {
			return nil, fmt.Errorf("postproc: node %d clock %d differs from %d", d.NodeID, d.ClockHz, a.ClockHz)
		}
		if len(d.Sets) != want {
			return nil, fmt.Errorf("postproc: node %d has %d sets, node %d has %d",
				d.NodeID, len(d.Sets), dumps[0].NodeID, want)
		}
		for i := range d.Sets {
			set := &d.Sets[i]
			sa := a.Sets[set.ID]
			if sa == nil {
				sa = &SetAnalysis{ID: set.ID}
				a.Sets[set.ID] = sa
				stats[set.ID] = make([]Stats, len(eventSlots.names))
			}
			if err := fold(sa, stats[set.ID], d, set); err != nil {
				return nil, err
			}
		}
	}
	for id, sa := range a.Sets {
		sa.Events = make(map[string]Stats)
		for k, s := range stats[id] {
			if s.Nodes > 0 {
				s.Mean = float64(s.Sum) / float64(s.Nodes)
				sa.Events[eventSlots.names[k]] = s
			}
		}
	}
	return a, nil
}

// fold adds one node's counters of one set to the set's per-slot stats.
func fold(sa *SetAnalysis, stats []Stats, d *bgpctr.Dump, set *bgpctr.DumpSet) error {
	if set.LastCycle < set.FirstCycle {
		return fmt.Errorf("postproc: node %d set %d: negative duration", d.NodeID, set.ID)
	}
	slots := &eventSlots.slot[min(d.Mode, upc.NumModes)]
	for i, v := range &set.Counts {
		k := slots[i]
		if k < 0 {
			if v != 0 {
				return fmt.Errorf("postproc: node %d set %d: reserved counter %d nonzero", d.NodeID, set.ID, i)
			}
			continue
		}
		if v > maxPlausibleCount {
			return fmt.Errorf("postproc: node %d set %d: counter %s = %d out of range",
				d.NodeID, set.ID, eventSlots.names[k], v)
		}
		s := &stats[k]
		if s.Nodes == 0 || v < s.Min {
			s.Min = v
		}
		if s.Nodes == 0 || v > s.Max {
			s.Max = v
		}
		s.Sum += v
		s.Nodes++
		if eventSlots.cycles[k] && v > sa.MaxCycles {
			sa.MaxCycles = v
		}
	}
	return nil
}

// LoadDir reads every *.bgpc dump in a directory.
func LoadDir(dir string) ([]*bgpctr.Dump, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.bgpc"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("postproc: no .bgpc dumps in %s", dir)
	}
	sort.Strings(names)
	dumps := make([]*bgpctr.Dump, 0, len(names))
	for _, name := range names {
		blob, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		d, err := bgpctr.DecodeDump(blob)
		if err != nil {
			return nil, fmt.Errorf("postproc: %s: %w", name, err)
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}
