package upc

import (
	"testing"
	"testing/quick"
)

// testUnit wires counter 0 of every mode to a shared raw total and counter 1
// of Mode0 to a second total.
func testUnit() (*Unit, *uint64, *uint64) {
	var rawA, rawB uint64
	return New(func(m Mode, v *[NumCounters]uint64) {
		v[0] = rawA
		if m == Mode0 {
			v[1] = rawB
		}
	}), &rawA, &rawB
}

func TestCountingWindow(t *testing.T) {
	u, raw, _ := testUnit()
	*raw = 100 // events before Start must not count
	u.Start()
	*raw = 150
	if got := u.Read(0); got != 50 {
		t.Errorf("running Read = %d, want 50", got)
	}
	u.Stop()
	*raw = 500 // events after Stop must not count
	if got := u.Read(0); got != 50 {
		t.Errorf("stopped Read = %d, want 50", got)
	}
}

func TestStartStopAccumulates(t *testing.T) {
	u, raw, _ := testUnit()
	u.Start()
	*raw = 10
	u.Stop()
	*raw = 100 // unmonitored gap
	u.Start()
	*raw = 130
	u.Stop()
	if got := u.Read(0); got != 40 {
		t.Errorf("accumulated = %d, want 10+30", got)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	u, raw, _ := testUnit()
	u.Start()
	u.Start()
	*raw = 7
	u.Stop()
	u.Stop()
	if got := u.Read(0); got != 7 {
		t.Errorf("Read = %d, want 7", got)
	}
}

func TestClear(t *testing.T) {
	u, raw, _ := testUnit()
	u.Start()
	*raw = 25
	u.Clear(0)
	*raw = 30
	if got := u.Read(0); got != 5 {
		t.Errorf("Read after Clear = %d, want 5", got)
	}
}

func TestReservedSlotsReadZero(t *testing.T) {
	u, raw, _ := testUnit()
	u.Start()
	*raw = 1000
	u.Stop()
	for i := 2; i < NumCounters; i += 37 {
		if got := u.Read(i); got != 0 {
			t.Errorf("reserved counter %d = %d, want 0", i, got)
		}
	}
}

func TestModeSwitchWhileRunningPanics(t *testing.T) {
	u, _, _ := testUnit()
	u.Start()
	defer func() {
		if recover() == nil {
			t.Error("SetMode while running did not panic")
		}
	}()
	u.SetMode(Mode1)
}

func TestInvalidModePanics(t *testing.T) {
	u, _, _ := testUnit()
	defer func() {
		if recover() == nil {
			t.Error("SetMode(4) did not panic")
		}
	}()
	u.SetMode(4)
}

func TestReadOutOfRangePanics(t *testing.T) {
	u, _, _ := testUnit()
	defer func() {
		if recover() == nil {
			t.Error("Read(256) did not panic")
		}
	}()
	u.Read(NumCounters)
}

func TestModeSelectsSignalSet(t *testing.T) {
	u, _, rawB := testUnit()
	u.SetMode(Mode1) // Mode1 does not wire counter 1
	u.Start()
	*rawB = 99
	if got := u.Read(1); got != 0 {
		t.Errorf("Mode1 counter 1 = %d, want 0 (unwired)", got)
	}
	u.Stop()
	u.SetMode(Mode0)
	u.Start()
	*rawB = 120
	if got := u.Read(1); got != 21 {
		t.Errorf("Mode0 counter 1 = %d, want 21", got)
	}
}

func TestThresholdInterrupt(t *testing.T) {
	u, raw, _ := testUnit()
	var fired []int
	u.SetInterruptHandler(func(c int, v uint64) { fired = append(fired, c) })
	u.SetConfig(0, CfgEdgeRise|CfgIntEnable)
	u.SetThreshold(0, 10)
	u.Start()
	*raw = 5
	u.Poll()
	if len(fired) != 0 {
		t.Fatal("interrupt before threshold")
	}
	*raw = 12
	u.Poll()
	u.Poll() // must be edge-triggered: no refire
	if len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("fired = %v, want exactly one interrupt on counter 0", fired)
	}
	u.Clear(0) // re-arms
	*raw = 30
	u.Poll()
	if len(fired) != 2 {
		t.Errorf("interrupt did not re-arm after Clear: fired = %v", fired)
	}
}

func TestThresholdDisabledNoInterrupt(t *testing.T) {
	u, raw, _ := testUnit()
	fired := 0
	u.SetInterruptHandler(func(int, uint64) { fired++ })
	u.SetThreshold(0, 1)
	// CfgIntEnable not set.
	u.Start()
	*raw = 100
	u.Poll()
	if fired != 0 {
		t.Error("interrupt fired without CfgIntEnable")
	}
}

func TestEventIDRoundTrip(t *testing.T) {
	f := func(m uint8, idx uint8) bool {
		mode := Mode(m % NumModes)
		id := MakeEventID(mode, int(idx))
		return id.Mode() == mode && id.Index() == int(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCatalogConsistency(t *testing.T) {
	if n := DefinedEvents(); n < 100 {
		t.Fatalf("catalog has only %d events", n)
	}
	seen := 0
	for m := Mode(0); m < NumModes; m++ {
		for i := 0; i < NumCounters; i++ {
			name := EventName(MakeEventID(m, i))
			if name == "BGP_RESERVED" {
				continue
			}
			seen++
			found := false
			for _, id := range LookupEvent(name) {
				if id.Mode() == m && id.Index() == i {
					found = true
				}
			}
			if !found {
				t.Errorf("event %s at (%v,%d) not found by LookupEvent", name, m, i)
			}
			if EventIndex(m, name) != i {
				t.Errorf("EventIndex(%v,%s) = %d, want %d", m, name, EventIndex(m, name), i)
			}
		}
	}
	if seen != DefinedEvents() {
		t.Errorf("catalog walk found %d events, DefinedEvents = %d", seen, DefinedEvents())
	}
}

func TestCatalogAnchors(t *testing.T) {
	cases := []struct {
		mode  Mode
		index int
		name  string
	}{
		{Mode0, DetailCoreBase, "BGP_PU0_CYCLES"},
		{Mode0, DetailCoreBase + CoreDetailStride, "BGP_PU1_CYCLES"},
		{Mode1, DetailCoreBase, "BGP_PU2_CYCLES"},
		{Mode0, DetailL3Base, "BGP_L3_BANK0_HIT"},
		{Mode0, DetailCoreBase + 20, "BGP_PU0_SNOOP_REQUESTS"},
		{Mode2, AggSnoopBase + 1, "BGP_NODE_SNOOP_FILTERED"},
		{Mode1, DetailDDRBase + 1, "BGP_DDR1_WRITE_LINES"},
		{Mode2, AggCyclesBase + 3, "BGP_PU3_CYCLES"},
		{Mode2, AggClassBase + 10, "BGP_NODE_FPU_SIMD_ADD_SUB"},
		{Mode2, AggDDRBase, "BGP_DDR_READ_LINES"},
		{Mode3, SysCollectiveBase + 2, "BGP_COL_BARRIER"},
		{Mode3, SysTorusBase + 4, "BGP_TORUS_HOPS"},
	}
	for _, tc := range cases {
		if got := EventName(MakeEventID(tc.mode, tc.index)); got != tc.name {
			t.Errorf("(%v,%d) = %s, want %s", tc.mode, tc.index, got, tc.name)
		}
	}
}

func TestAllEventNamesDistinctLocations(t *testing.T) {
	for _, n := range AllEventNames() {
		ids := LookupEvent(n)
		if len(ids) == 0 {
			t.Errorf("event %s has no locations", n)
		}
		seen := map[EventID]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Errorf("event %s lists duplicate location %d", n, id)
			}
			seen[id] = true
		}
	}
}

func TestMMIOCounterAndControl(t *testing.T) {
	u, raw, _ := testUnit()
	// Start via control register with Mode0.
	if err := u.Store64(RegControl, ctlRun|uint64(Mode0)<<ctlModeLow); err != nil {
		t.Fatal(err)
	}
	if !u.Running() {
		t.Fatal("control write did not start unit")
	}
	*raw = 42
	v, err := u.Load64(RegCounterBase + 0)
	if err != nil || v != 42 {
		t.Fatalf("counter MMIO read = %d (%v), want 42", v, err)
	}
	ctl, err := u.Load64(RegControl)
	if err != nil || ctl&ctlRun == 0 {
		t.Fatalf("control read = %#x (%v), want run bit set", ctl, err)
	}
	// Stop and switch to Mode2 in one control write.
	if err := u.Store64(RegControl, uint64(Mode2)<<ctlModeLow); err != nil {
		t.Fatal(err)
	}
	if u.Running() || u.Mode() != Mode2 {
		t.Errorf("after stop: running=%v mode=%v", u.Running(), u.Mode())
	}
}

func TestMMIOConfigThreshold(t *testing.T) {
	u, _, _ := testUnit()
	if err := u.Store64(RegConfigBase+8*5, CfgLevelLow|CfgIntEnable); err != nil {
		t.Fatal(err)
	}
	if got := u.Config(5); got != CfgLevelLow|CfgIntEnable {
		t.Errorf("config = %#x", got)
	}
	if err := u.Store64(RegThresholdBase+8*5, 777); err != nil {
		t.Fatal(err)
	}
	if v, _ := u.Load64(RegThresholdBase + 8*5); v != 777 {
		t.Errorf("threshold readback = %d", v)
	}
}

func TestMMIOWriteCounterSetsValue(t *testing.T) {
	u, raw, _ := testUnit()
	u.Start()
	*raw = 50
	if err := u.Store64(RegCounterBase, 5); err != nil {
		t.Fatal(err)
	}
	*raw = 53
	if got := u.Read(0); got != 8 {
		t.Errorf("Read after counter write = %d, want 8", got)
	}
}

func TestMMIOInvalidAccess(t *testing.T) {
	u, _, _ := testUnit()
	if _, err := u.Load64(3); err == nil {
		t.Error("unaligned load did not fail")
	}
	if _, err := u.Load64(WindowBytes); err == nil {
		t.Error("out-of-window load did not fail")
	}
	if err := u.Store64(WindowBytes+8, 0); err == nil {
		t.Error("out-of-window store did not fail")
	}
}
