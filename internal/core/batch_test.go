package core

// Property tests for the batched execution engine: slicing a program at
// ANY sequence of cycle limits must be invisible in every architectural
// counter. The batched routes (closed-form, line-coalesced, and tracked
// with residency proofs) may only accelerate the accounting, never change
// it, and preemption can land inside any of them.

import (
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/rng"
)

// kernelPrograms returns one program per batched route, each long enough
// that random limits cut it hundreds of times.
func kernelPrograms() map[string]*isa.Program {
	return map[string]*isa.Program{
		"closed-form": {
			Name: "cf",
			Loops: []isa.Loop{{
				Name:  "flops",
				Trips: 200_000,
				Body:  []isa.Op{{Class: isa.FPFMA}, {Class: isa.FPFMA}, {Class: isa.IntALU}},
			}},
		},
		"coalesced": {
			Name:    "coal",
			Regions: []isa.Region{{Name: "a", Size: 1 << 20}, {Name: "b", Size: 1 << 18}},
			Loops: []isa.Loop{{
				Name:  "stream",
				Trips: 120_000,
				Body: []isa.Op{
					{Class: isa.FPFMA},
					{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
					{Class: isa.Store, Pat: isa.Seq, Region: 1, Stride: 16},
				},
			}},
		},
		"interp": {
			Name:    "gather",
			Regions: []isa.Region{{Name: "keys", Size: 1 << 20}, {Name: "counts", Size: 1 << 14}},
			Loops: []isa.Loop{{
				Name:  "scatter",
				Trips: 60_000,
				Body: []isa.Op{
					{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 4},
					{Class: isa.Store, Pat: isa.Random, Region: 1},
					{Class: isa.IntALU},
				},
			}},
		},
	}
}

// counterState flattens every architectural counter a core exposes.
type counterState struct {
	mix        [isa.NumClasses]uint64
	cycles     uint64
	l1Hits     uint64
	l1Misses   uint64
	l1WBs      uint64
	l2Hits     uint64
	lowerReads uint64
	lowerWBs   uint64
	lowerPref  uint64
}

func snapshot(c *Core, lower *fakeLower) counterState {
	return counterState{
		mix:        c.Mix,
		cycles:     c.Cycles,
		l1Hits:     c.L1.Hits,
		l1Misses:   c.L1.Misses,
		l1WBs:      c.L1.Writebacks,
		l2Hits:     c.L2.Hits,
		lowerReads: lower.reads,
		lowerWBs:   lower.writes,
		lowerPref:  lower.prefetches,
	}
}

// TestLimitCutsAreInvisible is the engine-exactness property test: for each
// batched route, an uninterrupted run and runs cut at randomized cycle
// limits must agree on every counter. Limits are drawn from mixed
// magnitudes so cuts land inside coalesced windows, between proof resets,
// and mid-trip in the interpreter.
func TestLimitCutsAreInvisible(t *testing.T) {
	for name, prog := range kernelPrograms() {
		prog := prog
		t.Run(name, func(t *testing.T) {
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			refLower := &fakeLower{}
			ref := newTestCore(refLower)
			refSt, err := Bind(prog, 1<<32, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Exec(refSt, 0) || !refSt.Done() {
				t.Fatal("uninterrupted run did not complete")
			}
			want := snapshot(ref, refLower)

			for trial := 0; trial < 8; trial++ {
				r := rng.New(0xC0FFEE).Derive(uint64(trial))
				lower := &fakeLower{}
				c := newTestCore(lower)
				st, err := Bind(prog, 1<<32, 11)
				if err != nil {
					t.Fatal(err)
				}
				cuts := 0
				for !c.Exec(st, c.Cycles+1+r.Uint64n(1<<uint(8+r.Intn(12)))) {
					if cuts++; cuts > 10_000_000 {
						t.Fatal("bounded execution made no progress")
					}
				}
				if !st.Done() {
					t.Fatal("sliced run did not complete")
				}
				if got := snapshot(c, lower); got != want {
					t.Errorf("trial %d (%d cuts): counters diverged\ngot  %+v\nwant %+v",
						trial, cuts, got, want)
				}
			}
		})
	}
}

// routeOf executes p on a fresh core and returns the one route the engine
// counted its loops under.
func routeOf(t *testing.T, p *isa.Program) Route {
	t.Helper()
	c := newTestCore(&fakeLower{})
	st, err := Bind(p, 1<<32, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exec(st, 0) {
		t.Fatal("program did not complete")
	}
	for r, n := range c.EngineRoutes {
		if n == uint64(len(p.Loops)) {
			return Route(r)
		}
	}
	t.Fatalf("%s: %d loops counted as %v", p.Name, len(p.Loops), c.EngineRoutes)
	return 0
}

// TestBatchedRoutesCovered pins that the three test programs actually
// exercise the three batched routes — if the routing changes, this fails
// loudly instead of silently collapsing the property test onto one path.
func TestBatchedRoutesCovered(t *testing.T) {
	got := map[Route]string{}
	for name, p := range kernelPrograms() {
		r := routeOf(t, p)
		if prev, dup := got[r]; dup {
			t.Errorf("%s and %s both take route %v", prev, name, r)
		}
		got[r] = name
	}
	for _, r := range []Route{RouteClosedForm, RouteCoalesced, RouteTracked} {
		if _, ok := got[r]; !ok {
			t.Errorf("no test program takes route %v", r)
		}
	}
}

// TestRouteClassification pins what a loop's ops make of it: no memory ops
// is closed-form, all line-coalescible is coalesced, one random or
// cross-line op makes the whole loop tracked.
func TestRouteClassification(t *testing.T) {
	regions := []isa.Region{
		{Name: "big", Size: 1 << 20},
		{Name: "tiny", Size: 64},
	}
	cases := []struct {
		name string
		body []isa.Op
		want Route
	}{
		{"empty", nil, RouteClosedForm},
		{"fp-only", []isa.Op{{Class: isa.FPFMA}, {Class: isa.FPSIMDMult}, {Class: isa.IntALU}}, RouteClosedForm},
		{"seq-small-stride", []isa.Op{{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8}}, RouteCoalesced},
		{"neg-stride", []isa.Op{{Class: isa.Store, Pat: isa.Seq, Region: 0, Stride: -16}}, RouteCoalesced},
		{"strided-sub-line", []isa.Op{{Class: isa.QuadLoad, Pat: isa.Strided, Region: 0, Stride: 64}}, RouteCoalesced},
		{"strided-cross-line", []isa.Op{{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 256}}, RouteTracked},
		{"cross-line-single-line-region", []isa.Op{{Class: isa.Load, Pat: isa.Strided, Region: 1, Stride: 256}}, RouteCoalesced},
		{"random", []isa.Op{{Class: isa.Load, Pat: isa.Random, Region: 0}}, RouteTracked},
		{"random-tiny-region", []isa.Op{{Class: isa.Load, Pat: isa.Random, Region: 1}}, RouteTracked},
		{"mixed-one-bad", []isa.Op{
			{Class: isa.FPFMA},
			{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
			{Class: isa.Load, Pat: isa.Random, Region: 0},
		}, RouteTracked},
		{"mixed-all-good", []isa.Op{
			{Class: isa.FPFMA},
			{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
			{Class: isa.Store, Pat: isa.Strided, Region: 0, Stride: 120},
		}, RouteCoalesced},
	}
	for _, tc := range cases {
		p := &isa.Program{
			Name:    tc.name,
			Regions: regions,
			Loops:   []isa.Loop{{Name: tc.name, Body: tc.body, Trips: 10}},
		}
		if got := routeOf(t, p); got != tc.want {
			t.Errorf("%s: route = %v, want %v", tc.name, got, tc.want)
		}
	}
}
