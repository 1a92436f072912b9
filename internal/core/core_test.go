package core

import (
	"testing"

	"bgpsim/internal/isa"
)

// fakeLower records traffic below the private caches with fixed latencies.
type fakeLower struct {
	reads, writes, prefetches uint64
	readLatency               uint64
}

func (f *fakeLower) ReadLine(coreID int, addr uint64) uint64 {
	f.reads++
	return f.readLatency
}
func (f *fakeLower) WriteLine(coreID int, addr uint64) uint64 {
	f.writes++
	return 2
}
func (f *fakeLower) PrefetchLine(coreID int, addr uint64) { f.prefetches++ }

func newTestCore(lower *fakeLower) *Core {
	if lower.readLatency == 0 {
		lower.readLatency = 100
	}
	return New(0, DefaultParams(), lower)
}

func seqProgram(name string, trips int64, regionBytes uint64) *isa.Program {
	return &isa.Program{
		Name:    name,
		Regions: []isa.Region{{Name: "a", Size: regionBytes}},
		Loops: []isa.Loop{{
			Name:  "l0",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.FPFMA},
				{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
			},
		}},
	}
}

func TestExecCountsMix(t *testing.T) {
	c := newTestCore(&fakeLower{})
	st, err := Bind(seqProgram("p", 1000, 1<<16), 1<<32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exec(st, 0) || !st.Done() {
		t.Fatal("program did not complete")
	}
	if c.Mix[isa.FPFMA] != 1000 || c.Mix[isa.Load] != 1000 {
		t.Errorf("mix = %v", c.Mix)
	}
	if c.Cycles == 0 {
		t.Error("no cycles charged")
	}
}

func TestExecBoundedResume(t *testing.T) {
	cA := newTestCore(&fakeLower{})
	stA, _ := Bind(seqProgram("p", 5000, 1<<16), 1<<32, 1)
	for i := 0; !cA.Exec(stA, cA.Cycles+100); i++ {
		if i > 1_000_000 {
			t.Fatal("bounded execution made no progress")
		}
	}

	// An unbounded run of the same program must observe identical
	// counters and cycles (determinism across slicing).
	cB := newTestCore(&fakeLower{})
	stB, _ := Bind(seqProgram("p", 5000, 1<<16), 1<<32, 1)
	cB.Exec(stB, 0)
	if cA.Mix != cB.Mix {
		t.Errorf("sliced mix %v != unsliced %v", cA.Mix, cB.Mix)
	}
	if cA.Cycles != cB.Cycles {
		t.Errorf("sliced cycles %d != unsliced %d", cA.Cycles, cB.Cycles)
	}
}

func TestSequentialStreamUsesPrefetcher(t *testing.T) {
	lower := &fakeLower{}
	c := newTestCore(lower)
	// Stream through 1 MB (far beyond L1) sequentially.
	st, _ := Bind(seqProgram("stream", 1<<17, 1<<20), 1<<32, 1)
	c.Exec(st, 0)
	if lower.prefetches == 0 {
		t.Error("sequential stream issued no prefetches")
	}
	if c.L2.Hits == 0 {
		t.Error("sequential stream never hit the prefetch buffer")
	}
	// Demand DDR reads should be a small minority once streams lock on.
	if lower.reads > lower.prefetches {
		t.Errorf("demand reads %d exceed prefetch reads %d on a pure stream",
			lower.reads, lower.prefetches)
	}
}

func TestRandomAccessMissesInLargeRegion(t *testing.T) {
	lower := &fakeLower{}
	c := newTestCore(lower)
	p := &isa.Program{
		Name:    "rand",
		Regions: []isa.Region{{Name: "a", Size: 16 << 20}},
		Loops: []isa.Loop{{
			Name:  "l0",
			Trips: 20000,
			Body:  []isa.Op{{Class: isa.Load, Pat: isa.Random, Region: 0}},
		}},
	}
	st, _ := Bind(p, 1<<32, 7)
	c.Exec(st, 0)
	missRate := float64(c.L1.Misses) / float64(c.L1.Hits+c.L1.Misses)
	if missRate < 0.9 {
		t.Errorf("random access over 16MB: L1 miss rate %.2f, want ~1", missRate)
	}
	if lower.prefetches > lower.reads/10 {
		t.Errorf("random pattern triggered %d prefetches vs %d reads", lower.prefetches, lower.reads)
	}
}

func TestSmallWorkingSetStaysInL1(t *testing.T) {
	lower := &fakeLower{}
	c := newTestCore(lower)
	// 8 KB region walked repeatedly fits in the 32 KB L1.
	st, _ := Bind(seqProgram("small", 100000, 8<<10), 1<<32, 1)
	c.Exec(st, 0)
	hitRate := float64(c.L1.Hits) / float64(c.L1.Hits+c.L1.Misses)
	if hitRate < 0.999 {
		t.Errorf("L1 hit rate %.4f for fitting working set", hitRate)
	}
}

func TestDirtyVictimsWriteBack(t *testing.T) {
	lower := &fakeLower{}
	c := newTestCore(lower)
	p := &isa.Program{
		Name:    "wb",
		Regions: []isa.Region{{Name: "a", Size: 1 << 20}},
		Loops: []isa.Loop{{
			Name:  "l0",
			Trips: 1 << 15,
			Body:  []isa.Op{{Class: isa.Store, Pat: isa.Seq, Region: 0, Stride: 32}},
		}},
	}
	st, _ := Bind(p, 1<<32, 1)
	c.Exec(st, 0)
	if lower.writes == 0 {
		t.Error("streaming stores produced no L1 writebacks")
	}
}

func TestIssueModel(t *testing.T) {
	// A pure-FP loop issues one FP op per cycle; divides add occupancy.
	lower := &fakeLower{}
	c := newTestCore(lower)
	p := &isa.Program{
		Name: "fp",
		Loops: []isa.Loop{{
			Name:  "l0",
			Trips: 100,
			Body: []isa.Op{
				{Class: isa.FPFMA}, {Class: isa.FPAddSub}, {Class: isa.FPMult},
			},
		}},
	}
	st, _ := Bind(p, 0, 1)
	c.Exec(st, 0)
	if got, want := c.Cycles, uint64(300); got != want {
		t.Errorf("3 FP ops × 100 trips: cycles = %d, want %d", got, want)
	}

	c2 := newTestCore(&fakeLower{})
	pd := &isa.Program{
		Name:  "div",
		Loops: []isa.Loop{{Name: "l0", Trips: 10, Body: []isa.Op{{Class: isa.FPDiv}}}},
	}
	std, _ := Bind(pd, 0, 1)
	c2.Exec(std, 0)
	want := uint64(10) * (1 + DefaultParams().DivOccupancy)
	if c2.Cycles != want {
		t.Errorf("10 divides: cycles = %d, want %d", c2.Cycles, want)
	}
}

func TestDualIssuePairsFPWithMem(t *testing.T) {
	// FP and memory ops pair: a (FMA, Load) body with L1 hits should cost
	// ~1 cycle per trip, not 2.
	lower := &fakeLower{}
	c := newTestCore(lower)
	st, _ := Bind(seqProgram("pair", 10000, 4<<10), 1<<32, 1)
	c.Exec(st, 0)
	perTrip := float64(c.Cycles) / 10000
	if perTrip > 1.2 {
		t.Errorf("paired FMA+Load cost %.2f cycles/trip, want ~1", perTrip)
	}
}

func TestBindRejectsInvalidProgram(t *testing.T) {
	p := &isa.Program{
		Name:  "bad",
		Loops: []isa.Loop{{Trips: 1, Body: []isa.Op{{Class: isa.Load}}}},
	}
	if _, err := Bind(p, 0, 1); err == nil {
		t.Error("Bind accepted invalid program")
	}
}

func TestBindLaysOutRegionsDisjoint(t *testing.T) {
	p := &isa.Program{
		Name: "layout",
		Regions: []isa.Region{
			{Name: "a", Size: 100}, {Name: "b", Size: 300}, {Name: "c", Size: 128},
		},
	}
	st, err := Bind(p, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.regionBase[0]%LineBytes != 0 {
		t.Error("region base not line aligned")
	}
	if st.regionBase[1] < st.regionBase[0]+100 || st.regionBase[2] < st.regionBase[1]+300 {
		t.Errorf("regions overlap: %v", st.regionBase)
	}
	if got, want := FootprintBytes(p), uint64(128+384+128); got != want {
		t.Errorf("FootprintBytes = %d, want %d", got, want)
	}
}

func TestEmptyProgramIsDone(t *testing.T) {
	st, err := Bind(&isa.Program{Name: "empty"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Error("empty program not immediately done")
	}
}

func TestWaitUntilAndAdvance(t *testing.T) {
	c := newTestCore(&fakeLower{})
	c.AdvanceCycles(50)
	c.WaitUntil(40) // must not move backwards
	if c.TimeBase() != 50 {
		t.Errorf("TimeBase = %d, want 50", c.TimeBase())
	}
	c.WaitUntil(80)
	if c.TimeBase() != 80 {
		t.Errorf("TimeBase = %d, want 80", c.TimeBase())
	}
}

func TestNilLowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with nil lower did not panic")
		}
	}()
	New(0, DefaultParams(), nil)
}

func TestExecRunsEveryLoopFully(t *testing.T) {
	// Regression: the trip cursor must reset between loops, or every
	// loop after the first is short-changed by the previous trip count.
	c := newTestCore(&fakeLower{})
	p := &isa.Program{
		Name: "multi",
		Loops: []isa.Loop{
			{Name: "a", Trips: 100, Body: []isa.Op{{Class: isa.FPFMA}}},
			{Name: "b", Trips: 300, Body: []isa.Op{{Class: isa.FPAddSub}}},
			{Name: "c", Trips: 50, Body: []isa.Op{{Class: isa.FPMult}}},
		},
	}
	st, _ := Bind(p, 0, 1)
	c.Exec(st, 0)
	if c.Mix[isa.FPFMA] != 100 || c.Mix[isa.FPAddSub] != 300 || c.Mix[isa.FPMult] != 50 {
		t.Errorf("mix = %v, want 100/300/50", c.Mix)
	}

	// The same must hold under bounded, resumable execution.
	c2 := newTestCore(&fakeLower{})
	st2, _ := Bind(p, 0, 1)
	for !c2.Exec(st2, c2.Cycles+7) {
	}
	if c2.Mix != c.Mix {
		t.Errorf("sliced mix %v != unsliced %v", c2.Mix, c.Mix)
	}
}
