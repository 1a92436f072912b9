package mpi

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/statehash"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/machine_state.golden from the current engine")

// scatterProgram lives on the L1-miss path with dirty victims: a sequential
// key read drives a random scatter over a table 64× the L1 (exactly the
// largest region the residency-proof bitmask still covers) and a random
// gather over one twice that (no proof). Nearly every scatter store misses
// and evicts a line an earlier store dirtied, so the run is write-backs, L2
// detector steals and L3 allocations.
func scatterProgram(trips int64) *isa.Program {
	return &isa.Program{
		Name: "scatter-dirty",
		Regions: []isa.Region{
			{Name: "keys", Size: 1 << 16},
			{Name: "bins", Size: 2 << 20},
			{Name: "pool", Size: 4 << 20},
		},
		Loops: []isa.Loop{{
			Name:  "scatter",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.IntALU},
				{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 4},
				{Class: isa.Store, Pat: isa.Random, Region: 1},
				{Class: isa.Load, Pat: isa.Random, Region: 2},
			},
		}},
	}
}

// stridedProgram streams across lines at strides the L2 engines lock onto
// (two and three lines forward, one line backward, all within
// cache.DefaultMaxDelta), so every trip is a real access per op and the
// detectors run their continuation path, with a store stream supplying dirty
// victims. Every region wrap strands a locked engine with a high hit count;
// once all fifteen are taken (five wraps in) the streams fight over the one
// zero-hit engine and never lock again, which is the steal path at its
// busiest. The second loop adds a stride the engines cannot follow at all.
func stridedProgram(trips int64) *isa.Program {
	return &isa.Program{
		Name: "strided-xline",
		Regions: []isa.Region{
			{Name: "a", Size: 1 << 20},
			{Name: "b", Size: 3 << 19},
			{Name: "c", Size: 1 << 19},
		},
		Loops: []isa.Loop{{
			Name:  "locked",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.FPFMA},
				{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 256},
				{Class: isa.Store, Pat: isa.Strided, Region: 1, Stride: 384},
				{Class: isa.Load, Pat: isa.Strided, Region: 2, Stride: -128},
			},
		}, {
			Name:  "unlockable",
			Trips: trips / 4,
			Body: []isa.Op{
				{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 1024 + 8},
				{Class: isa.Store, Pat: isa.Seq, Region: 2, Stride: 8},
			},
		}},
	}
}

// missPathBody runs p on every rank twice (the second execution rewinds into
// caches the first left warm and dirty) with collectives between, so the
// shared L3 sees the ranks' miss streams interleaved slice by slice.
func missPathBody(p *isa.Program) func(*Rank) {
	return func(r *Rank) {
		r.Exec(p)
		r.Allreduce(256)
		r.Exec(p)
		r.Barrier()
	}
}

// TestMachineStateGolden pins the whole flattened machine — every cache tag,
// recency word, dirty bit, detector engine, prefetch buffer and counter of
// every node (its state window) — after workloads that live on the L1-miss
// path, as one digest per workload and operating mode. Counter-dump equality
// cannot see a recency word move (PR 19 found sixteen that did, with no dump
// byte changed); this can. The golden file records the model, not an engine:
// regenerate it (-update) only in a change that means to move simulated
// state, never alongside a host-side optimisation of the path.
func TestMachineStateGolden(t *testing.T) {
	l3pf := machine.DefaultParams()
	l3pf.Node.L3PrefetchDepth = 2
	body := func(p *isa.Program, params machine.Params) func(machine.OpMode) (*Job, error) {
		return func(mode machine.OpMode) (*Job, error) {
			m := machine.New(2, mode, params)
			j, err := NewJob(m, m.MaxRanks())
			if err == nil {
				err = j.Run(missPathBody(p))
			}
			return j, err
		}
	}
	workloads := []struct {
		name string
		run  func(machine.OpMode) (*Job, error)
	}{
		{"mixed", func(mode machine.OpMode) (*Job, error) {
			j, _, run, err := mixedJobHooked(mode, nil, nil)
			if err == nil {
				err = run()
			}
			return j, err
		}},
		{"scatter-dirty", body(scatterProgram(40_000), machine.DefaultParams())},
		{"strided-xline", body(stridedProgram(40_000), machine.DefaultParams())},
		// The memory-side L3 engine is the detector's other regime (eight
		// engines, strides up to 16 lines, no packed-byte screen).
		{"scatter-dirty/l3pf2", body(scatterProgram(40_000), l3pf)},
		{"strided-xline/l3pf2", body(stridedProgram(40_000), l3pf)},
	}
	var got strings.Builder
	for _, w := range workloads {
		for _, mode := range []machine.OpMode{machine.VNM, machine.Dual, machine.SMP4} {
			j, err := w.run(mode)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			d := statehash.Sum128(machineState(j))
			fmt.Fprintf(&got, "%s %s %016x%016x\n", w.name, mode, d.Hi, d.Lo)
		}
	}

	path := filepath.Join("testdata", "machine_state.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d workload states, %s holds %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("machine state moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}
