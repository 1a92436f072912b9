package experiments

// The pass table GoldenFigures installs: inside one call an identity runs
// once and its duplicates are served its result, unless that run failed.

import (
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/machine"
	"bgpsim/internal/nas"
	"bgpsim/internal/obs"
)

func passScale(sc bgp.SweepConfig) (Scale, *obs.Registry) {
	reg := obs.NewRegistry()
	sc.Observer = obs.NewRecorder(reg, nil)
	s := Scale{Class: nas.ClassS, Ranks: 4, SweepConfig: sc, Missing: &MissingSet{}}
	s.pass = passTable{}
	return s, reg
}

func passPoints() []bgp.RunConfig {
	vnm := bgp.RunConfig{Benchmark: "ep", Class: nas.ClassS, Ranks: 4, Mode: machine.VNM, Opts: BestBuild()}
	smp := vnm
	smp.Mode = machine.SMP1
	return []bgp.RunConfig{vnm, smp, vnm}
}

func TestPassServesDuplicates(t *testing.T) {
	s, reg := passScale(bgp.SweepConfig{})
	results, err := runAll(s, passPoints())
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if c[obs.MetricRuns] != 3 || c[obs.MetricRunsServed] != 1 {
		t.Errorf("%d runs, %d served; want 3 runs, 1 served", c[obs.MetricRuns], c[obs.MetricRunsServed])
	}
	twin, served := results[0], results[2]
	if served == nil || served == twin || served.Metrics != twin.Metrics || served.Label != twin.Label || served.Config.Nodes != twin.Config.Nodes {
		t.Errorf("served point is not a copy of its twin: %+v vs %+v", served, twin)
	}

	// A later call with the table holding both identities simulates nothing.
	if _, err := runAll(s, passPoints()); err != nil {
		t.Fatal(err)
	}
	if c := reg.Snapshot().Counters; c[obs.MetricRuns] != 6 || c[obs.MetricRunsServed] != 4 {
		t.Errorf("after a second call: %d runs, %d served; want 6 runs, 4 served", c[obs.MetricRuns], c[obs.MetricRunsServed])
	}
}

// TestPassRunsDuplicateOfFailedTwin: a failed run leaves nothing to serve,
// so its duplicate is attempted in its own right.
func TestPassRunsDuplicateOfFailedTwin(t *testing.T) {
	s, reg := passScale(bgp.SweepConfig{ContinueOnError: true, CheckpointDir: t.TempDir(), ResumeOnly: true})
	results, err := runAll(s, passPoints())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("point %d has a result from an empty checkpoint", i)
		}
	}
	c := reg.Snapshot().Counters
	if failed := c[obs.MetricSweepPrefix+string(obs.EventRunFailed)]; failed != 3 || c[obs.MetricRunsServed] != 0 {
		t.Errorf("%d runs failed, %d served; want every point attempted and none served", failed, c[obs.MetricRunsServed])
	}
	if s.Missing.Missing() != 3 || s.Missing.Total() != 3 {
		t.Errorf("missing set = %d/%d, want 3/3", s.Missing.Missing(), s.Missing.Total())
	}
}
