package bgp_test

// The determinism harness of the sweep-orchestration layer. The simulator's
// guarantee is that host-side parallelism is strictly *cross-run*: inside a
// run the rank scheduler stays cooperative and deterministic, so executing
// the same RunConfig serially or through the worker pool at any width must
// produce byte-identical binary counter dumps and identical derived
// metrics. These tests pin that guarantee per operating mode, and exercise
// the pool under the race detector with several simulations in flight.

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
	"bgpsim/internal/obs"
	"bgpsim/internal/sweep"
)

// determinismCases covers at least one benchmark in every node operating
// mode (Figure 3), at class S so the harness stays fast.
func determinismCases() []bgp.RunConfig {
	return []bgp.RunConfig{
		{Benchmark: "mg", Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true}},
		{Benchmark: "ft", Class: bgp.ClassS, Ranks: 2, Mode: bgp.SMP4,
			Opts: bgp.Options{Level: bgp.O3}},
		{Benchmark: "cg", Class: bgp.ClassS, Ranks: 4, Mode: bgp.Dual,
			Opts: bgp.Options{Level: bgp.O4, Arch440d: true}},
		{Benchmark: "ep", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true}},
	}
}

// readDumpBytes returns the raw contents of every .bgpc file in dir,
// keyed by file name.
func readDumpBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.bgpc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no dump files in %s", dir)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = blob
	}
	return out
}

// TestSerialParallelDeterminism runs each configuration once through the
// serial path and several times concurrently through the pool, and asserts
// the binary counter dumps are byte-identical and the derived metrics
// equal. This is the golden guarantee the parallel sweep layer rests on.
func TestSerialParallelDeterminism(t *testing.T) {
	const copies = 4
	for _, cfg := range determinismCases() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%v", cfg.Benchmark, cfg.Mode), func(t *testing.T) {
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
			want := readDumpBytes(t, serialCfg.DumpDir)

			// The same configuration, several copies in flight at once
			// through the pool.
			cfgs := make([]bgp.RunConfig, copies)
			for i := range cfgs {
				cfgs[i] = cfg
				cfgs[i].DumpDir = filepath.Join(root, fmt.Sprintf("pool%d", i))
				if err := os.MkdirAll(cfgs[i].DumpDir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			// The pool runs with a full observer (registry + tracer)
			// attached while the serial reference ran with none: an
			// observer is passive, so the dumps must still match
			// byte for byte.
			var trace bytes.Buffer
			rec := obs.NewRecorder(obs.NewRegistry(), obs.NewTracer(&trace))
			results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
				Workers:  copies,
				Observer: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Registry().Snapshot().Counters[obs.MetricRuns]; got != copies {
				t.Errorf("observer counted %d runs, want %d", got, copies)
			}
			if trace.Len() == 0 {
				t.Error("observer-attached pool produced no trace spans")
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
					t.Errorf("pool copy %d metrics differ:\nserial   %+v\nparallel %+v",
						i, serial.Metrics, res.Metrics)
				}
				if res.Label != serial.Label {
					t.Errorf("pool copy %d label %q != serial %q", i, res.Label, serial.Label)
				}
			}
		})
	}
}

// TestConcurrentJobsRace floods the pool with simulations across every
// operating mode and several benchmarks at once. Its job is to give the
// race detector concurrent jobs touching every simulator subsystem
// (scheduler, node, caches, networks, RNG streams); run it with
// `go test -race`.
func TestConcurrentJobsRace(t *testing.T) {
	cfgs := append(determinismCases(), determinismCases()...)
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: len(cfgs)})
	if err != nil {
		t.Fatal(err)
	}
	// The duplicated halves are identical configurations; cross-job
	// interleaving must not perturb either copy.
	half := len(cfgs) / 2
	for i := 0; i < half; i++ {
		if !reflect.DeepEqual(results[i].Metrics, results[half+i].Metrics) {
			t.Errorf("copies of %s/%v disagree under concurrency",
				cfgs[i].Benchmark, cfgs[i].Mode)
		}
	}
}

// TestRunAllPropagatesErrors pins the pool's failure contract at the public
// API: an invalid configuration fails its own run only — the other run
// finishes — and the sweep returns one *sweep.SweepError that unwraps to
// the failed run's error, identifying its position; a cancelled context
// skips the runs not yet started and unwraps to context.Canceled.
func TestRunAllPropagatesErrors(t *testing.T) {
	cfgs := []bgp.RunConfig{
		{Benchmark: "mg", Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM},
		{Benchmark: "no-such-benchmark", Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM},
	}
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: 2})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("invalid benchmark: err = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 1 || se.Failed[0].Index != 1 || !strings.Contains(se.Failed[0].Err.Error(), "run 1 (no-such-benchmark.S VNM)") {
		t.Errorf("Failed = %v, want run 1 alone, named", se.Failed)
	}
	if results[0] == nil || results[1] != nil {
		t.Errorf("results = %v, want run 0's result and nil for the failed run 1", results)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = bgp.RunAll(ctx, cfgs[:1], bgp.SweepConfig{Workers: 1})
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) || len(se.Skipped) != 1 {
		t.Fatalf("cancelled context returned %v, want a *sweep.SweepError skipping run 0 for context.Canceled", err)
	}
}
