package bgpctr

import (
	"bytes"
	"strings"
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
)

func sampledJob(t *testing.T, interval uint64, events ...string) *Sampler {
	t.Helper()
	m := machine.New(2, machine.VNM, machine.DefaultParams())
	j, err := mpi.NewJob(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(interval, events...)
	s.Attach(j)
	p := &isa.Program{
		Name:    "w",
		Regions: []isa.Region{{Name: "a", Size: 1 << 16}},
		Loops: []isa.Loop{{Name: "l", Trips: 400000, Body: []isa.Op{
			{Class: isa.FPFMA},
			{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
		}}},
	}
	if _, err := Instrument(j, func(r *mpi.Rank) {
		r.Exec(p)
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSamplerTimeline(t *testing.T) {
	s := sampledJob(t, 50_000, "BGP_PU0_CYCLES", "BGP_NODE_FPU_FMA")
	samples := s.Samples()
	if len(samples) < 4 {
		t.Fatalf("only %d samples", len(samples))
	}
	// Samples are aligned to interval multiples and cover both nodes.
	nodes := map[int]bool{}
	for _, sm := range samples {
		if sm.Cycle%50_000 != 0 {
			t.Fatalf("sample at %d not on the interval grid", sm.Cycle)
		}
		nodes[sm.NodeID] = true
	}
	if len(nodes) != 2 {
		t.Errorf("samples cover %d nodes, want 2", len(nodes))
	}
}

func TestSamplerSeriesMonotone(t *testing.T) {
	s := sampledJob(t, 50_000, "BGP_NODE_FPU_FMA")
	// Node 0 is even → aggregate mode carries the FMA counter.
	cycles, values := s.Series(0, "BGP_NODE_FPU_FMA")
	if len(values) < 3 {
		t.Fatalf("series too short: %d points", len(values))
	}
	for i := 1; i < len(values); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatal("cycle axis not increasing")
		}
		if values[i] < values[i-1] {
			t.Fatal("cumulative counter decreased")
		}
	}
	if values[len(values)-1] == 0 {
		t.Error("counter never advanced")
	}
}

func TestSamplerModeAwareness(t *testing.T) {
	s := sampledJob(t, 100_000, "BGP_NODE_FPU_FMA", "BGP_COL_BARRIER")
	// The aggregate event exists only on even nodes, the collective
	// event only on odd ones.
	if _, v := s.Series(1, "BGP_NODE_FPU_FMA"); len(v) != 0 {
		t.Error("odd node reported an aggregate-mode event")
	}
	if _, v := s.Series(0, "BGP_COL_BARRIER"); len(v) != 0 {
		t.Error("even node reported a system-mode event")
	}
	if _, v := s.Series(1, "BGP_COL_BARRIER"); len(v) == 0 {
		t.Error("odd node missing its system-mode event")
	}
}

func TestSamplerCSV(t *testing.T) {
	s := sampledJob(t, 100_000, "BGP_PU0_CYCLES")
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,node,BGP_PU0_CYCLES" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Errorf("CSV has only %d lines", len(lines))
	}
}

func TestSamplerUnknownSeries(t *testing.T) {
	s := sampledJob(t, 100_000, "BGP_PU0_CYCLES")
	if c, v := s.Series(0, "NOPE"); c != nil || v != nil {
		t.Error("unknown event returned data")
	}
}

func TestSamplerValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSampler(0, "BGP_PU0_CYCLES") },
		func() { NewSampler(1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}
