package bgp_test

// Determinism harness for YAML workload specs. A spec-driven run flows
// through the same engine, caches and recovery layers as a NAS benchmark,
// so it inherits the same exactness contract: byte-identical binary counter
// dumps across the serial path, the cross-run pool, the epoch memo
// (exactnessCases gains a spec point), and a faulted, checkpointed, resumed
// sweep.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/obs"
	"bgpsim/internal/server"
	"bgpsim/internal/sweep"
)

// mustHPLConfig returns a RunConfig for specs/hpl.yaml at test scale. It
// panics on a load failure because exactnessCases has no *testing.T; the
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
// host-side knobs stay out of the key. The seed is edited in the YAML text,
// which is decoded again: a decoded spec is never mutated.
func TestSpecRunKeyProperties(t *testing.T) {
	a := mustHPLConfig()
	b := mustHPLConfig()
	if bgp.RunKey(0, a) != bgp.RunKey(0, b) {
		t.Error("two loads of one spec file produce different RunKeys; the cache would never hit")
	}

	src, err := os.ReadFile("specs/hpl.yaml")
	if err != nil {
		t.Fatal(err)
	}
	reseeded := fmt.Sprintf("seed: %d\n", a.Spec.Seed+1)
	edited := strings.Replace(string(src), fmt.Sprintf("seed: %d\n", a.Spec.Seed), reseeded, 1)
	if !strings.Contains(edited, reseeded) {
		t.Fatalf("specs/hpl.yaml has no %q line to edit", fmt.Sprintf("seed: %d", a.Spec.Seed))
	}
	seeded := mustHPLConfig()
	if seeded.Spec, err = bgp.ParseWorkloadSpec([]byte(edited)); err != nil {
		t.Fatal(err)
	}
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

// TestDecodedSpecIsNeverMutated pushes one decoded spec through every path
// that keys or runs it — Run, a checkpointed RunAll, the store's Restore and
// DumpFile, and bgpd's submit and fetch — and requires it to equal a fresh
// decode of the same bytes afterwards. A decoded spec carries the identity
// its decoder hashed, so a path that edited it would leave that identity
// stale; this is the test that would catch it.
func TestDecodedSpecIsNeverMutated(t *testing.T) {
	src, err := os.ReadFile("specs/hpl.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bgp.ParseWorkloadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustHPLConfig()
	cfg.Spec = spec
	if _, err := bgp.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}

	ckptDir := t.TempDir()
	if _, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, bgp.SweepConfig{Workers: 1, CheckpointDir: ckptDir}); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	store, err := bgp.OpenCheckpointStore(ckptDir, true)
	if err != nil {
		t.Fatal(err)
	}
	key := bgp.RunKey(0, cfg)
	if store.Restore(key, cfg) == nil {
		t.Fatal("Restore found no entry for the run RunAll persisted")
	}
	if blob, _ := store.DumpFile(key, cfg, 0); blob == nil {
		t.Fatal("DumpFile found no node 0 dump for the run RunAll persisted")
	}

	s, err := server.New(server.Config{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job := &server.JobSpec{Tenant: "immutable", Runs: []server.RunSpec{
		{Spec: string(src), Class: "S", Ranks: 4, Mode: "vnm", Opts: "-O5 -qarch=440d"},
	}}
	cfgs := []bgp.RunConfig{cfg}
	if _, _, err := s.Submit(job, cfgs); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	base := ts.URL + "/v1/jobs/" + server.JobID(job, cfgs)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var st server.JobStatus
		if err := json.Unmarshal(httpGet(t, base), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == server.StateDone {
			break
		}
		if st.State == server.StateFailed || time.Now().After(deadline) {
			t.Fatalf("bgpd job is %s: %s", st.State, st.Error)
		}
	}
	httpGet(t, base+"/result")
	httpGet(t, base+"/result?run=0&node=0")

	fresh, err := bgp.ParseWorkloadSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, fresh) {
		t.Fatalf("the decoded spec changed on its way through the simulator and bgpd:\n got %+v\nwant %+v", spec, fresh)
	}
}

// httpGet fetches url and returns the body of its 200 answer.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
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
// a checkpointed sweep of HPL-proxy runs with two injected panics fails
// exactly the panicked positions, and a second sweep on the directory must
// persist dumps byte-identical to fault-free serial slow-path runs. This
// extends the chaos suite (bgp_chaos_test.go) to the spec path without
// disturbing its fault-index expectations.
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
	armed := map[string]faults.Kind{
		bgp.RunKey(1, cfgs[1]): faults.Panic, // no twin: the second pass executes it
		bgp.RunKey(2, cfgs[2]): faults.Panic, // its twin, run 0, commits the entry
	}
	for key, kind := range armed {
		inj.Arm(key, kind)
	}

	ckptDir := filepath.Join(root, "ckpt")
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Faults:        inj,
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("chaos pass error = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 2 || se.Failed[0].Index != 1 || se.Failed[1].Index != 2 {
		t.Fatalf("chaos pass failures = %+v, want exactly the panicked runs 1 and 2", se.Failed)
	}
	var pe *sweep.RunPanicError
	if !errors.As(err, &pe) {
		t.Errorf("chaos pass failures do not unwrap to a panic: %v", err)
	}
	if !reflect.DeepEqual(chaos[0].Metrics, golden[0].Metrics) {
		t.Error("run 0 metrics diverge from golden under injected faults")
	}
	requireFired(t, inj, armed) // else the recovery comparison is vacuous

	// The second pass restores run 0's entry at positions 0 and 2 and
	// executes the panicked run 1, which no position completed.
	rec, seen := sweepEvents()
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Observer:      rec,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	if r, e := seen(obs.EventCheckpointRestore), seen(obs.EventCheckpointPersist); r != 2 || e != 1 {
		t.Errorf("resume restored %d and executed %d runs, want 2 and 1", r, e)
	}
	for i, cfg := range cfgs {
		want := goldenDumps[goldenOf[i]]
		got := checkpointDumpBytes(t, ckptDir, cfg)
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
