package bgp_test

// The exactness contract of epoch fast-forwarding and the epoch memo,
// pinned at the public API: for any configuration, running with the
// accelerations at their defaults (both on) and with NoFastForward /
// NoEpochMemo set must produce byte-identical binary counter dumps and
// identical derived metrics. Like the batched engine (bgp_engine_test),
// fast-forward and the memo are execution accelerators, never an
// approximation — the slow path is the reference.
//
// Each configuration runs three ways: the slow path (both accelerations
// off), a first accelerated run (which records epochs into the
// process-wide memo), and a second accelerated run (which replays them).
// The second run is the interesting one — its dumps come from restored
// machine state rather than executed instructions — so the comparison
// covers both the recording and the replay sides of the memo.

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

// collectivesOnlyCases are collectives-only configurations whose ranks span
// several nodes, covering every operating mode including the threaded ones.
func collectivesOnlyCases() []bgp.RunConfig {
	return []bgp.RunConfig{
		{Benchmark: "ep", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true}},
		{Benchmark: "ft", Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1,
			Opts: bgp.Options{Level: bgp.O3, Arch440d: true}},
		{Benchmark: "ft", Class: bgp.ClassS, Ranks: 2, Mode: bgp.SMP4,
			Opts: bgp.Options{Level: bgp.O4}},
		{Benchmark: "is", Class: bgp.ClassS, Ranks: 8, Mode: bgp.Dual,
			Opts: bgp.Options{Level: bgp.O5}},
	}
}

// fastForwardCases is the determinism-suite matrix — every operating mode
// via determinismCases, plus the whole NAS kernel set in VNM, a pair of
// class-W points so the comparison crosses problem classes, and the
// multi-node collectives-only points.
func fastForwardCases() []bgp.RunConfig {
	cases := determinismCases()
	for _, name := range []string{"mg", "ft", "ep", "cg", "is", "lu", "sp", "bt"} {
		cases = append(cases, bgp.RunConfig{
			Benchmark: name, Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true},
		})
	}
	cases = append(cases,
		bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassW, Ranks: 8, Mode: bgp.VNM,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true}},
		bgp.RunConfig{Benchmark: "is", Class: bgp.ClassW, Ranks: 4, Mode: bgp.Dual,
			Opts: bgp.Options{Level: bgp.O3}},
		// A YAML workload spec rides the same accelerators as the NAS set.
		mustHPLConfig(),
	)
	return append(cases, collectivesOnlyCases()...)
}

// ffRun executes cfg with the given acceleration opt-outs and returns the
// dump bytes and result.
func ffRun(t *testing.T, cfg bgp.RunConfig, noFF, noMemo bool, dir string, ob bgp.Observer) (map[string][]byte, *bgp.Result) {
	t.Helper()
	cfg.NoFastForward = noFF
	cfg.NoEpochMemo = noMemo
	cfg.Observer = ob
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

// TestFastForwardMemoExactness is the acceptance gate for the fast-forward
// and epoch-memo layers: byte-identical dumps and identical metrics across
// the slow path, a recording run and a replaying run, for every kernel,
// mode and class in the determinism matrix. A shared recorder then proves
// the accelerations actually engaged — the equality above would be vacuous
// if the fast path had silently disabled itself.
func TestFastForwardMemoExactness(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)

	for _, cfg := range fastForwardCases() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%s-%v", cfg.Benchmark, cfg.Class, cfg.Mode), func(t *testing.T) {
			root := t.TempDir()
			want, wantRes := ffRun(t, cfg, true, true, filepath.Join(root, "slow"), nil)
			first, firstRes := ffRun(t, cfg, false, false, filepath.Join(root, "record"), rec)
			second, secondRes := ffRun(t, cfg, false, false, filepath.Join(root, "replay"), rec)

			for _, run := range []struct {
				name  string
				dumps map[string][]byte
				res   *bgp.Result
			}{{"recording", first, firstRes}, {"replaying", second, secondRes}} {
				if len(run.dumps) != len(want) {
					t.Fatalf("%s run wrote %d dumps, slow path wrote %d", run.name, len(run.dumps), len(want))
				}
				for name, blob := range want {
					if !bytes.Equal(blob, run.dumps[name]) {
						t.Errorf("dump %s differs between the slow path and the %s run", name, run.name)
					}
				}
				if !reflect.DeepEqual(run.res.Metrics, wantRes.Metrics) {
					t.Errorf("metrics differ:\nslow path %+v\n%s run %+v",
						wantRes.Metrics, run.name, run.res.Metrics)
				}
			}
		})
	}

	// The accelerated runs above must have exercised both layers. Exact
	// counts depend on process-wide memo warmth (other tests share the
	// default cache), so only engagement is asserted.
	counters := reg.Snapshot().Counters
	if hits := counters[obs.MetricEpochMemoPrefix+"hits"]; hits == 0 {
		t.Errorf("epoch memo never replayed an epoch (%shits = 0)", obs.MetricEpochMemoPrefix)
	}
	if disp := counters[obs.MetricFFPrefix+"dispatches"]; disp == 0 {
		t.Errorf("fast-forward never engaged (%sdispatches = 0)", obs.MetricFFPrefix)
	}
}
