package bgp_test

// The exactness contract of the batched execution engine, pinned at the
// public API: for any configuration, running with Interpreter: true (the
// reference per-trip interpreter) and false (the batched engine) must
// produce byte-identical binary counter dumps and identical derived
// metrics — the batched engine is an accounting accelerator, never an
// approximation. The slice length is part of the machine semantics (snoop
// probes land between slices), so the comparison holds the slice fixed and
// sweeps it across several odd values to land preemption inside coalesced
// windows and residency-proof stretches.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/obs"
)

// engineRun executes cfg with the given engine selection and slice length
// and returns the dump bytes and result.
func engineRun(t *testing.T, cfg bgp.RunConfig, interp bool, slice uint64, dir string) (map[string][]byte, *bgp.Result) {
	t.Helper()
	cfg.Interpreter = interp
	cfg.SliceCycles = slice
	cfg.DumpDir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := bgp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return readDumpBytes(t, dir), res
}

// TestBatchedInterpreterEquivalence compares the two engines across every
// operating mode (the determinism cases cover SMP1, SMP4, Dual and VNM)
// and several slice lengths, including the default and deliberately ragged
// primes that cut mid-kernel.
//
// The dumps match, but the engine-route totals (core.Core.EngineRoutes) must
// not: they are state-window words, which the epoch memo digests at a run's
// first cut and replays by diff. So Interpreter stays part of the run
// identity — under one key a batched run whose first cut precedes every
// loop (sp's opening Barrier) could replay an interpreter-recorded chain
// and report the interpreter's routes.
func TestBatchedInterpreterEquivalence(t *testing.T) {
	slices := []uint64{0, 997, 7_919, 62_143}
	routes := func(st obs.RunStats) [4]uint64 {
		return [4]uint64{st.RouteClosedForm, st.RouteCoalesced, st.RouteTracked, st.RouteInterp}
	}
	for _, cfg := range determinismCases() {
		for _, slice := range slices {
			cfg, slice := cfg, slice
			t.Run(fmt.Sprintf("%s-%v-slice%d", cfg.Benchmark, cfg.Mode, slice), func(t *testing.T) {
				root := t.TempDir()
				rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
				cfg.Observer = rec
				want, wantRes := engineRun(t, cfg, true, slice, filepath.Join(root, "interp"))
				got, gotRes := engineRun(t, cfg, false, slice, filepath.Join(root, "batched"))
				if interp, batched := routes(rec.runs[0]), routes(rec.runs[1]); interp == batched {
					t.Errorf("engine routes %v are the same on both engines; Interpreter need not be identity", interp)
				}

				if len(got) != len(want) {
					t.Fatalf("batched wrote %d dumps, interpreter wrote %d", len(got), len(want))
				}
				for name, blob := range want {
					if !bytes.Equal(blob, got[name]) {
						t.Errorf("dump %s differs between engines", name)
					}
				}
				if !reflect.DeepEqual(gotRes.Metrics, wantRes.Metrics) {
					t.Errorf("metrics differ:\ninterpreter %+v\nbatched     %+v",
						wantRes.Metrics, gotRes.Metrics)
				}
			})
		}
	}
}

// TestEngineEquivalenceAcrossSuite sweeps the whole NAS kernel set once in
// VNM (the heaviest sharing mode) at the default slice: every engine route
// the programs take — closed-form, coalesced, tracked scatter — must agree
// between engines at the end-to-end metrics level.
func TestEngineEquivalenceAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite engine sweep is not a -short test")
	}
	for _, name := range []string{"mg", "ft", "ep", "cg", "is", "lu", "sp", "bt"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := bgp.RunConfig{
				Benchmark: name, Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM,
				Opts: bgp.Options{Level: bgp.O5, Arch440d: true},
			}
			root := t.TempDir()
			want, wantRes := engineRun(t, cfg, true, 0, filepath.Join(root, "interp"))
			got, gotRes := engineRun(t, cfg, false, 0, filepath.Join(root, "batched"))
			for dn, blob := range want {
				if !bytes.Equal(blob, got[dn]) {
					t.Errorf("dump %s differs between engines", dn)
				}
			}
			if !reflect.DeepEqual(gotRes.Metrics, wantRes.Metrics) {
				t.Errorf("metrics differ:\ninterpreter %+v\nbatched     %+v",
					wantRes.Metrics, gotRes.Metrics)
			}
		})
	}
}
