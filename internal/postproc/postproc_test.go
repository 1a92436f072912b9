package postproc

import (
	"bytes"
	"strings"
	"testing"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/node"
	"bgpsim/internal/upc"
)

// fakeDump builds a dump with the named Mode2 events set per node.
func fakeDump(nodeID int, mode upc.Mode, values map[string]uint64) *bgpctr.Dump {
	d := &bgpctr.Dump{
		NodeID:  nodeID,
		Mode:    mode,
		ClockHz: 850_000_000,
		Sets:    []bgpctr.DumpSet{{ID: 0, Pairs: 1, FirstCycle: 0, LastCycle: 1}},
	}
	for name, v := range values {
		idx := upc.EventIndex(mode, name)
		if idx < 0 {
			panic("event not in mode: " + name)
		}
		d.Sets[0].Counts[idx] = v
	}
	return d
}

func TestAnalyzeStats(t *testing.T) {
	dumps := []*bgpctr.Dump{
		fakeDump(0, upc.Mode2, map[string]uint64{"BGP_NODE_FPU_FMA": 100, "BGP_PU0_CYCLES": 1000}),
		fakeDump(2, upc.Mode2, map[string]uint64{"BGP_NODE_FPU_FMA": 300, "BGP_PU0_CYCLES": 900}),
		fakeDump(1, upc.Mode3, map[string]uint64{"BGP_DDR_READ_LINES": 50, "BGP_PU0_CYCLES": 800}),
	}
	a, err := Analyze(dumps)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Event(0, "BGP_NODE_FPU_FMA")
	if s.Min != 100 || s.Max != 300 || s.Mean != 200 || s.Nodes != 2 || s.Sum != 400 {
		t.Errorf("FMA stats = %+v", s)
	}
	// Estimated machine total scales the mean to all 3 nodes.
	if got := a.EstimatedTotal(0, "BGP_NODE_FPU_FMA"); got != 600 {
		t.Errorf("EstimatedTotal = %g, want 600", got)
	}
	if a.Sets[0].MaxCycles != 1000 {
		t.Errorf("MaxCycles = %d", a.Sets[0].MaxCycles)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	good := fakeDump(0, upc.Mode2, nil)
	dup := fakeDump(0, upc.Mode2, nil)
	if _, err := Analyze([]*bgpctr.Dump{good, dup}); err == nil {
		t.Error("duplicate node accepted")
	}

	badClock := fakeDump(1, upc.Mode2, nil)
	badClock.ClockHz = 1
	if _, err := Analyze([]*bgpctr.Dump{good, badClock}); err == nil {
		t.Error("clock mismatch accepted")
	}

	missingSet := fakeDump(1, upc.Mode2, nil)
	missingSet.Sets = nil
	if _, err := Analyze([]*bgpctr.Dump{good, missingSet}); err == nil {
		t.Error("set-count mismatch accepted")
	}

	outOfRange := fakeDump(1, upc.Mode2, map[string]uint64{"BGP_NODE_FPU_FMA": 1 << 60})
	if _, err := Analyze([]*bgpctr.Dump{outOfRange}); err == nil {
		t.Error("implausible counter value accepted")
	}

	reserved := fakeDump(1, upc.Mode2, nil)
	reserved.Sets[0].Counts[200] = 5 // reserved slot
	if _, err := Analyze([]*bgpctr.Dump{reserved}); err == nil {
		t.Error("nonzero reserved counter accepted")
	}

	if _, err := Analyze(nil); err == nil {
		t.Error("empty dump list accepted")
	}

	negDur := fakeDump(1, upc.Mode2, nil)
	negDur.Sets[0].FirstCycle = 10
	negDur.Sets[0].LastCycle = 5
	if _, err := Analyze([]*bgpctr.Dump{negDur}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestComputeMetrics(t *testing.T) {
	clock := uint64(850_000_000)
	dumps := []*bgpctr.Dump{
		fakeDump(0, upc.Mode2, map[string]uint64{
			"BGP_NODE_FPU_FMA":      1_000_000, // 2 Mflop
			"BGP_NODE_FPU_SIMD_FMA": 500_000,   // 2 Mflop
			"BGP_NODE_FPU_ADD_SUB":  100_000,
			"BGP_PU0_CYCLES":        clock, // exactly 1 second
			"BGP_DDR_READ_LINES":    1000,
			"BGP_DDR_WRITE_LINES":   500,
			"BGP_NODE_L1D_HIT":      900,
			"BGP_NODE_L1D_MISS":     100,
		}),
		fakeDump(1, upc.Mode3, map[string]uint64{
			"BGP_DDR_READ_LINES":  1000,
			"BGP_DDR_WRITE_LINES": 500,
			"BGP_PU0_CYCLES":      clock / 2,
		}),
	}
	a, err := Analyze(dumps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compute(a, 0, "test")
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecSeconds != 1.0 {
		t.Errorf("ExecSeconds = %g", m.ExecSeconds)
	}
	// FP events only on node 0 → totals estimated ×2 nodes.
	wantFlops := 2.0 * (1_000_000*2 + 500_000*4 + 100_000*1)
	if m.Flops != wantFlops {
		t.Errorf("Flops = %g, want %g", m.Flops, wantFlops)
	}
	if m.MFLOPS != wantFlops/1e6 {
		t.Errorf("MFLOPS = %g", m.MFLOPS)
	}
	if m.MFLOPSPerChip != m.MFLOPS/2 {
		t.Errorf("MFLOPSPerChip = %g", m.MFLOPSPerChip)
	}
	// DDR lines are monitored on every node → exact.
	if want := uint64(3000) * DDRLineBytes; m.DDRTrafficBytes != want {
		t.Errorf("DDRTrafficBytes = %d, want %d", m.DDRTrafficBytes, want)
	}
	wantShare := (500_000.0 * 2) / (1_600_000.0 * 2)
	if diff := m.SIMDShare - wantShare; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("SIMDShare = %g, want %g", m.SIMDShare, wantShare)
	}
	if m.L1HitRate != 0.9 {
		t.Errorf("L1HitRate = %g", m.L1HitRate)
	}
}

func TestComputeUnknownSet(t *testing.T) {
	a, _ := Analyze([]*bgpctr.Dump{fakeDump(0, upc.Mode2, nil)})
	if _, err := Compute(a, 9, "x"); err == nil {
		t.Error("unknown set accepted")
	}
}

func TestCSVOutputs(t *testing.T) {
	a, err := Analyze([]*bgpctr.Dump{
		fakeDump(0, upc.Mode2, map[string]uint64{"BGP_NODE_FPU_FMA": 10, "BGP_PU0_CYCLES": 100}),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compute(a, 0, "app1")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, []*Metrics{m}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("metrics CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "app1,0,1,") {
		t.Errorf("metrics row = %q", lines[1])
	}
	if !strings.Contains(lines[0], "BGP_NODE_FPU_SIMD_FMA") {
		t.Error("metrics header missing FP class columns")
	}

	buf.Reset()
	if err := WriteStatsCSV(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BGP_NODE_FPU_FMA,10,10,10.00,1,10") {
		t.Errorf("stats CSV missing row: %s", buf.String())
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	// Write a real dump through the library.
	n := newInstrumentedNode(t)
	s := bgpctr.Initialize(n, 0, upc.Mode2)
	s.Start(0)
	s.Stop(0)
	d, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := bgpctr.WriteDumps(dir, []*bgpctr.Dump{d}); err != nil {
		t.Fatal(err)
	}
	dumps, err := LoadDir(dir)
	if err != nil || len(dumps) != 1 {
		t.Fatalf("LoadDir: %d dumps, err %v", len(dumps), err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

func newInstrumentedNode(t *testing.T) *node.Node {
	t.Helper()
	return node.New(0, node.DefaultParams(), nil, nil)
}
