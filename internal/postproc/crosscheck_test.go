package postproc

import (
	"testing"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/compiler"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/nas"
	"bgpsim/internal/upc"
)

// realAnalysis runs an instrumented benchmark and mines it.
func realAnalysis(t *testing.T) *Analysis {
	t.Helper()
	b, err := nas.ByName("mg")
	if err != nil {
		t.Fatal(err)
	}
	app, err := b.Build(nas.Config{Class: nas.ClassS, Ranks: 8,
		Opts: compiler.Options{Level: compiler.O5, Arch440d: true}})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(2, machine.VNM, machine.DefaultParams())
	j, err := mpi.NewJob(m, app.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	dumps, err := bgpctr.Instrument(j, app.Body)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(dumps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCrossCheckRealRunIsClean(t *testing.T) {
	a := realAnalysis(t)
	results := CrossCheck(a)
	if len(results) < 4 {
		t.Fatalf("only %d identities evaluated", len(results))
	}
	for _, r := range Violations(results) {
		t.Errorf("identity %q violated on set %d: %s", r.Name, r.Set, r.Detail)
	}
}

func TestCrossCheckDetectsCorruptedCounts(t *testing.T) {
	d := fakeDump(0, upc.Mode2, map[string]uint64{
		"BGP_NODE_L1D_HIT":  100,
		"BGP_NODE_L1D_MISS": 5,
		"BGP_NODE_LOAD":     50, // 105 L1 accesses vs 50 memory ops: broken
		"BGP_PU0_CYCLES":    1000,
	})
	a, err := Analyze([]*bgpctr.Dump{d})
	if err != nil {
		t.Fatal(err)
	}
	bad := Violations(CrossCheck(a))
	found := false
	for _, r := range bad {
		if r.Name == "l1-accesses-equal-memory-ops" {
			found = true
		}
	}
	if !found {
		t.Errorf("inconsistent L1 accounting not flagged; violations: %v", bad)
	}
}

func TestCrossCheckDetectsSnoopImbalance(t *testing.T) {
	d := fakeDump(0, upc.Mode2, map[string]uint64{
		"BGP_NODE_SNOOP_REQUESTS":    10,
		"BGP_NODE_SNOOP_FILTERED":    9,
		"BGP_NODE_SNOOP_INVALIDATES": 5, // > requests-filtered
		"BGP_PU0_CYCLES":             10,
	})
	a, _ := Analyze([]*bgpctr.Dump{d})
	bad := Violations(CrossCheck(a))
	found := false
	for _, r := range bad {
		if r.Name == "snoop-accounting" {
			found = true
		}
	}
	if !found {
		t.Error("impossible snoop accounting not flagged")
	}
}

func TestCrossCheckDetectsAsymmetricBarriers(t *testing.T) {
	d0 := fakeDump(0, upc.Mode3, map[string]uint64{"BGP_COL_BARRIER": 3, "BGP_PU0_CYCLES": 10})
	d1 := fakeDump(1, upc.Mode3, map[string]uint64{"BGP_COL_BARRIER": 2, "BGP_PU0_CYCLES": 10})
	a, _ := Analyze([]*bgpctr.Dump{d0, d1})
	bad := Violations(CrossCheck(a))
	found := false
	for _, r := range bad {
		if r.Name == "barrier-participation-symmetric" {
			found = true
		}
	}
	if !found {
		t.Error("asymmetric barrier participation not flagged")
	}
}
