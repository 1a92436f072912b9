package experiments

// The pass table GoldenFigures installs: inside one call an identity runs
// once and its duplicates are served its result, and so are the larger L3s
// an eviction-free run refines into, unless that run failed.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
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
	s.pass = newPass()
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
	s, reg := passScale(bgp.SweepConfig{CheckpointDir: t.TempDir(), ResumeOnly: true})
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

// TestPassRunsLargerL3OfFailedTwin is Figure 11 for one benchmark with the
// 2 MB run failing: the 4 MB point waits a round for
// its would-be twin, finds none, and runs in its place, and its own
// eviction-free result then serves 6 and 8 MB. Every point but 2 MB renders.
func TestPassRunsLargerL3OfFailedTwin(t *testing.T) {
	dir := t.TempDir()
	var ckpt []bgp.RunConfig
	for _, l3 := range []int{-1, 4 << 20} {
		ckpt = append(ckpt, bgp.RunConfig{Benchmark: "mg", Class: nas.ClassS, Ranks: 4, Mode: machine.SMP1, Opts: BestBuild(), L3Bytes: l3})
	}
	if _, err := bgp.RunAll(context.Background(), ckpt, bgp.SweepConfig{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	// The checkpoint holds 0 and 4 MB, so a ResumeOnly sweep fails 2 MB.
	s, reg := passScale(bgp.SweepConfig{CheckpointDir: dir, ResumeOnly: true})
	rows, err := Fig11L3Sweep([]string{"mg"}, s)
	if err != nil {
		t.Fatal(err)
	}
	pts := rows[0].Points
	for k, p := range pts {
		if p.Missing != (p.L3Bytes == 2<<20) {
			t.Errorf("%d MB point: missing %t, want only 2 MB missing", p.L3Bytes>>20, p.Missing)
		}
		if k > 2 && p.DDRTrafficBytes != pts[2].DDRTrafficBytes {
			t.Errorf("%d MB point: %d DDR bytes, its 4 MB twin %d", p.L3Bytes>>20, p.DDRTrafficBytes, pts[2].DDRTrafficBytes)
		}
	}
	c := reg.Snapshot().Counters
	if restored := c[obs.MetricSweepPrefix+string(obs.EventCheckpointRestore)]; restored != 2 || c[obs.MetricRunsServed] != 2 {
		t.Errorf("%d restored, %d served; want 0 and 4 MB restored, 6 and 8 MB served", restored, c[obs.MetricRunsServed])
	}
	if got := s.Missing.Labels(); len(got) != 1 || !strings.HasSuffix(got[0], " l3=2MB") {
		t.Errorf("missing points %q, want the 2 MB point only", got)
	}
	var out bytes.Buffer
	RenderFig11(&out, rows)
	if !strings.Contains(out.String(), fmt.Sprintf("%.3g (", float64(pts[2].DDRTrafficBytes))) {
		t.Errorf("the rendered figure lacks the 4 MB point's %d DDR bytes:\n%s", pts[2].DDRTrafficBytes, out.String())
	}
}
