package postproc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/upc"
)

// referenceAnalyze is the map-based fold the slot-indexed one replaced,
// kept as its oracle: every counter named through upc.EventName and folded
// into its set's Events map in place.
func referenceAnalyze(dumps []*bgpctr.Dump) (*Analysis, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("postproc: no dumps to analyze")
	}
	a := &Analysis{
		TotalNodes: len(dumps),
		ClockHz:    dumps[0].ClockHz,
		Sets:       make(map[int]*SetAnalysis),
	}
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
		for _, set := range d.Sets {
			if err := referenceFold(a, d, &set); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

func referenceFold(a *Analysis, d *bgpctr.Dump, set *bgpctr.DumpSet) error {
	sa := a.Sets[set.ID]
	if sa == nil {
		sa = &SetAnalysis{ID: set.ID, Events: make(map[string]Stats)}
		a.Sets[set.ID] = sa
	}
	if set.LastCycle < set.FirstCycle {
		return fmt.Errorf("postproc: node %d set %d: negative duration", d.NodeID, set.ID)
	}
	for i, v := range set.Counts {
		name := upc.EventName(upc.MakeEventID(d.Mode, i))
		if name == "BGP_RESERVED" {
			if v != 0 {
				return fmt.Errorf("postproc: node %d set %d: reserved counter %d nonzero", d.NodeID, set.ID, i)
			}
			continue
		}
		if v > maxPlausibleCount {
			return fmt.Errorf("postproc: node %d set %d: counter %s = %d out of range",
				d.NodeID, set.ID, name, v)
		}
		s, known := sa.Events[name]
		if !known {
			s = Stats{Min: v, Max: v}
		} else {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
		}
		s.Sum += v
		s.Nodes++
		s.Mean = float64(s.Sum) / float64(s.Nodes)
		sa.Events[name] = s
		if strings.HasSuffix(name, "_CYCLES") && v > sa.MaxCycles {
			sa.MaxCycles = v
		}
	}
	return nil
}

// randomRun is one run's dumps: one to six nodes in any of the four modes
// (so events every mode carries, such as BGP_PU0_CYCLES, meet events only
// some do), the same set ids on every node in its own order, and counters
// on the wired slots. With probability fault it damages one thing the
// validation catches: a reserved counter set, a value out of range, a
// negative duration, a repeated node, a different clock, a missing set or
// a mode out of range.
func randomRun(rng *rand.Rand, fault float64) []*bgpctr.Dump {
	ids := rng.Perm(5)[:1+rng.Intn(3)]
	dumps := make([]*bgpctr.Dump, 1+rng.Intn(6))
	for n := range dumps {
		d := &bgpctr.Dump{NodeID: 2 * n, Mode: upc.Mode(rng.Intn(upc.NumModes)), ClockHz: 850_000_000}
		for _, k := range rng.Perm(len(ids)) {
			set := bgpctr.DumpSet{ID: ids[k], Pairs: 1, FirstCycle: uint64(rng.Intn(100)), LastCycle: 100 + uint64(rng.Intn(1000))}
			for i := range set.Counts {
				if upc.EventName(upc.MakeEventID(d.Mode, i)) != "BGP_RESERVED" {
					set.Counts[i] = rng.Uint64() >> (8 + rng.Intn(57))
				}
			}
			d.Sets = append(d.Sets, set)
		}
		dumps[n] = d
	}
	if rng.Float64() < fault {
		d := dumps[rng.Intn(len(dumps))]
		set := &d.Sets[rng.Intn(len(d.Sets))]
		switch rng.Intn(7) {
		case 0:
			for i := range set.Counts {
				if upc.EventName(upc.MakeEventID(d.Mode, i)) == "BGP_RESERVED" {
					set.Counts[i] = 1
					break
				}
			}
		case 1:
			i := rng.Intn(upc.NumCounters)
			for upc.EventName(upc.MakeEventID(d.Mode, i)) == "BGP_RESERVED" {
				i = rng.Intn(upc.NumCounters)
			}
			set.Counts[i] = maxPlausibleCount + 1
		case 2:
			set.FirstCycle, set.LastCycle = set.LastCycle, set.FirstCycle
		case 3:
			d.NodeID = dumps[0].NodeID
		case 4:
			d.ClockHz++
		case 5:
			d.Sets = d.Sets[1:]
		case 6:
			d.Mode = upc.NumModes + upc.Mode(rng.Intn(3))
		}
	}
	return dumps
}

// TestAnalyzeMatchesMapReference holds the slot-indexed fold to the
// map-based one over random runs: a deep-equal Analysis, or the same error
// text.
func TestAnalyzeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	failed := map[bool]int{}
	for n := 0; n < 400; n++ {
		dumps := randomRun(rng, 0.5)
		got, gotErr := Analyze(dumps)
		want, wantErr := referenceAnalyze(dumps)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("run %d: error %v, reference %v", n, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: the analyses differ:\n got  %+v\n want %+v", n, got, want)
		}
		failed[gotErr != nil]++
	}
	if failed[true] < 50 || failed[false] < 50 {
		t.Errorf("%d runs rejected, %d mined; want plenty of each", failed[true], failed[false])
	}
}
