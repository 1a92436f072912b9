package bgp_test

// Determinism harness for YAML workload specs. A spec-driven run flows
// through the same engine, caches and recovery layers as a NAS benchmark,
// so it inherits the same exactness contract: byte-identical binary counter
// dumps across the serial path, the cross-run pool, fast-forward + epoch
// memo (fastForwardCases gains a spec point), and a faulted, checkpointed,
// resumed sweep.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/sweep"
)

// mustHPLConfig returns a RunConfig for specs/hpl.yaml at test scale. It
// panics on a load failure because fastForwardCases has no *testing.T; the
// spec is committed, so a failure is a broken tree, not a test condition.
func mustHPLConfig() bgp.RunConfig {
	spec, err := bgp.LoadWorkloadSpec("specs/hpl.yaml")
	if err != nil {
		panic(fmt.Sprintf("loading specs/hpl.yaml: %v", err))
	}
	return bgp.RunConfig{
		Spec: spec, Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM,
		Opts: bgp.Options{Level: bgp.O5, Arch440d: true},
	}
}

// TestSpecSerialParallelDeterminism is the pool half of the spec contract:
// one spec configuration run serially and as several concurrent pool copies
// must produce byte-identical dumps and equal metrics.
func TestSpecSerialParallelDeterminism(t *testing.T) {
	const copies = 3
	cfg := mustHPLConfig()
	root := t.TempDir()

	serialCfg := cfg
	serialCfg.DumpDir = filepath.Join(root, "serial")
	if err := os.MkdirAll(serialCfg.DumpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	serial, err := bgp.Run(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(serial.Label, "hpl.") {
		t.Errorf("spec run label %q does not carry the spec name", serial.Label)
	}
	want := readDumpBytes(t, serialCfg.DumpDir)

	cfgs := make([]bgp.RunConfig, copies)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].DumpDir = filepath.Join(root, fmt.Sprintf("pool%d", i))
		if err := os.MkdirAll(cfgs[i].DumpDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: copies})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		got := readDumpBytes(t, cfgs[i].DumpDir)
		if len(got) != len(want) {
			t.Fatalf("pool copy %d wrote %d dumps, serial wrote %d", i, len(got), len(want))
		}
		for name, blob := range want {
			if !bytes.Equal(blob, got[name]) {
				t.Errorf("pool copy %d: dump %s differs from serial run", i, name)
			}
		}
		if !reflect.DeepEqual(res.Metrics, serial.Metrics) {
			t.Errorf("pool copy %d metrics differ from serial run", i)
		}
	}
}

// TestSpecRunKeyProperties pins the fingerprint that feeds checkpoint keys,
// the epoch memo and bgpd job ids: two loads of one spec file share a
// RunKey; a seed edit, a different spec, or a NAS benchmark do not; and
// host-side knobs stay out of the key.
func TestSpecRunKeyProperties(t *testing.T) {
	a := mustHPLConfig()
	b := mustHPLConfig()
	if bgp.RunKey(0, a) != bgp.RunKey(0, b) {
		t.Error("two loads of one spec file produce different RunKeys; the cache would never hit")
	}

	seeded := mustHPLConfig()
	seeded.Spec.Seed++
	if bgp.RunKey(0, a) == bgp.RunKey(0, seeded) {
		t.Error("a seed edit does not change the RunKey; distinct workloads would share dumps")
	}

	bench := a
	bench.Spec = nil
	bench.Benchmark = "mg"
	if bgp.RunKey(0, a) == bgp.RunKey(0, bench) {
		t.Error("a spec run and a benchmark run share a RunKey")
	}

	knobs := mustHPLConfig()
	knobs.DumpDir = "/somewhere/else"
	knobs.NoEpochMemo = true
	if bgp.RunKey(0, a) != bgp.RunKey(0, knobs) {
		t.Error("host-side knobs perturb a spec RunKey; resume would re-run everything")
	}
}

// TestSpecBenchmarkMutuallyExclusive pins the public-API guard.
func TestSpecBenchmarkMutuallyExclusive(t *testing.T) {
	cfg := mustHPLConfig()
	cfg.Benchmark = "mg"
	if _, err := bgp.Run(cfg); err == nil {
		t.Fatal("Run accepted both Benchmark and Spec")
	}
}

// TestChaosSpecResume runs the fault-recovery contract over spec workloads:
// a checkpointed ContinueOnError sweep of HPL-proxy runs with injected
// transient faults and a panic, resumed, must persist dumps byte-identical
// to fault-free serial slow-path runs. This extends the chaos suite
// (bgp_chaos_test.go) to the spec path without disturbing its fault-index
// expectations.
func TestChaosSpecResume(t *testing.T) {
	base := mustHPLConfig()
	smp := mustHPLConfig()
	smp.Mode = bgp.SMP4
	smp.Ranks = 2
	cases := []bgp.RunConfig{base, smp}
	cfgs := append(cases, base) // a repeated point rides the warm caches
	goldenOf := []int{0, 1, 0}

	root := t.TempDir()
	golden, goldenDumps := goldenRuns(t, root, cases)

	inj := faults.New(0x4A17)
	inj.Arm(bgp.RunKey(0, cfgs[0]), faults.Transient) // heals within the budget
	inj.Arm(bgp.RunKey(1, cfgs[1]), faults.Panic)     // panic isolation + retry

	ckptDir := filepath.Join(root, "ckpt")
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		Retries:       1,
		CheckpointDir: ckptDir,
		Faults:        inj,
	})
	if err != nil {
		var se *sweep.SweepError
		if errors.As(err, &se) {
			t.Fatalf("chaos pass failed runs: %+v", se.Failed)
		}
		t.Fatal(err)
	}
	for i, res := range chaos {
		if !reflect.DeepEqual(res.Metrics, golden[goldenOf[i]].Metrics) {
			t.Errorf("run %d metrics diverge from golden after fault recovery", i)
		}
	}
	if len(inj.Log()) == 0 {
		t.Fatal("no fault ever fired; the recovery comparison is vacuous")
	}

	// Resume restores every pristine checkpoint without re-running.
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Resume:        true,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	for i, cfg := range cfgs {
		want := goldenDumps[goldenOf[i]]
		got := checkpointDumpBytes(t, ckptDir, i, cfg)
		if len(got) != len(want) {
			t.Fatalf("run %d: checkpoint has %d dumps, golden has %d", i, len(got), len(want))
		}
		for name, blob := range want {
			if !bytes.Equal(blob, got[name]) {
				t.Errorf("run %d: checkpoint dump %s differs from fault-free golden", i, name)
			}
		}
		if !reflect.DeepEqual(resumed[i].Metrics, golden[goldenOf[i]].Metrics) {
			t.Errorf("run %d: resumed metrics diverge from golden", i)
		}
	}
}
