package bgp_test

// The exactness contract of the epoch memo, pinned at the public API: for
// any configuration, running with the memo at its default (on) and with
// NoEpochMemo set must produce byte-identical binary counter dumps and
// identical derived metrics. Like the batched engine (bgp_engine_test), the
// memo is an execution accelerator, never an approximation — the slow path
// is the reference.
//
// Each configuration runs four ways: the slow path (memo off) and three
// runs that walk the process-wide memo through its admission policy — a
// first-sight run (which only marks the epochs it meets), a recording run,
// and a replaying run. The last is the interesting one — its dumps come from
// restored machine state rather than executed instructions — so the
// comparison covers the unrecorded, the recording and the replay sides of
// the memo.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

// exactnessCases is the determinism-suite matrix — every operating mode
// via determinismCases, plus the whole NAS kernel set in VNM, a pair of
// class-W points so the comparison crosses problem classes, and the
// multi-node collectives-only points.
func exactnessCases() []bgp.RunConfig {
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
		// A YAML workload spec rides the same memo as the NAS set.
		mustHPLConfig(),
	)
	return append(cases, collectivesOnlyCases()...)
}

// memoRun executes cfg with the given memo opt-out and returns the dump
// bytes and result.
func memoRun(t *testing.T, cfg bgp.RunConfig, noMemo bool, dir string, ob bgp.Observer) (map[string][]byte, *bgp.Result) {
	t.Helper()
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

// runLog is a recorder that also keeps every RunStats it observes, so a
// test can read one run's own counters while the registry behind it
// accumulates. Safe for a sweep's concurrent workers.
type runLog struct {
	*obs.Recorder
	mu   sync.Mutex
	runs []obs.RunStats
}

func (l *runLog) RunDone(st obs.RunStats) {
	l.mu.Lock()
	l.runs = append(l.runs, st)
	l.mu.Unlock()
	l.Recorder.RunDone(st)
}

// requireReplayed asserts that the run behind st replayed every epoch it
// could have: a run with c cuts has c-1 closed epochs (the one after the
// last cut runs to job end), and on the third sight of its keys each of
// them is a hit and nothing is recorded.
func requireReplayed(t *testing.T, st obs.RunStats) {
	t.Helper()
	cuts := st.EpochMemoHits + st.EpochMemoMisses
	if cuts > 1 && st.EpochMemoHits != cuts-1 {
		t.Errorf("%s: %d hits over %d cuts, want %d (misses %d, first sights %d, stores %d)", st.Label,
			st.EpochMemoHits, cuts, cuts-1, st.EpochMemoMisses, st.EpochMemoFirstSights, st.EpochMemoStores)
	}
	if st.EpochMemoStores != 0 {
		t.Errorf("%s: a replaying run recorded %d epochs; its legs did not line up with the admission policy",
			st.Label, st.EpochMemoStores)
	}
}

// TestFastForwardMemoExactness is the acceptance gate for the epoch-memo
// layer: byte-identical dumps and identical metrics across the slow path, a
// first-sight run, a recording run and a replaying run, for every kernel,
// mode and class in the determinism matrix. Each case's replaying run must
// then prove, from its own counters, that it replayed — the equality above
// would be vacuous if the memo had silently disabled itself, or if "run it
// again" had merely recorded again. (The name is kept from when the gate
// also covered epoch fast-forwarding.)
func TestFastForwardMemoExactness(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &runLog{Recorder: obs.NewRecorder(reg, nil)}

	for _, cfg := range exactnessCases() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%s-%v", cfg.Benchmark, cfg.Class, cfg.Mode), func(t *testing.T) {
			root := t.TempDir()
			want, wantRes := memoRun(t, cfg, true, filepath.Join(root, "slow"), nil)

			// Other tests share the process-wide memo, so an earlier leg may
			// already find marks or entries; only the last leg's state is
			// certain, and only it is asserted on.
			for _, leg := range []string{"first-sight", "recording", "replaying"} {
				dumps, res := memoRun(t, cfg, false, filepath.Join(root, leg), rec)
				if len(dumps) != len(want) {
					t.Fatalf("%s run wrote %d dumps, slow path wrote %d", leg, len(dumps), len(want))
				}
				for name, blob := range want {
					if !bytes.Equal(blob, dumps[name]) {
						t.Errorf("dump %s differs between the slow path and the %s run", name, leg)
					}
				}
				if !reflect.DeepEqual(res.Metrics, wantRes.Metrics) {
					t.Errorf("metrics differ:\nslow path %+v\n%s run %+v",
						wantRes.Metrics, leg, res.Metrics)
				}
			}

			requireReplayed(t, rec.runs[len(rec.runs)-1])
		})
	}

	if hits := reg.Snapshot().Counters[obs.MetricEpochMemoPrefix+"hits"]; hits == 0 {
		t.Errorf("epoch memo never replayed an epoch (%shits = 0)", obs.MetricEpochMemoPrefix)
	}
}
