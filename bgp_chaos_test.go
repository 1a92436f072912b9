package bgp_test

// The chaos harness of the resilient sweep layer. The exactness contract is
// that recovery machinery never perturbs simulation results: with a seeded
// fault schedule injecting transient errors, panics, stalls and dump
// corruption, a ContinueOnError + retry + resume sweep must converge to
// counter dumps byte-identical to a clean serial run — across all four
// operating modes (determinismCases covers one benchmark per mode). The
// fault injector draws from its own RNG streams, so arming it changes when
// runs fail, never what they compute.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/obs"
	"bgpsim/internal/sweep"
)

// goldenRuns executes each configuration serially on the pure slow path —
// epoch fast-forwarding and the epoch memo disabled — and returns the
// per-config results and raw dump bytes: the reference every recovered
// sweep must reproduce byte-for-byte. The sweeps under test keep the
// accelerations at their defaults, so every chaos comparison in this file
// also pins the accelerated paths against the unaccelerated reference.
func goldenRuns(t *testing.T, root string, cfgs []bgp.RunConfig) ([]*bgp.Result, []map[string][]byte) {
	t.Helper()
	results := make([]*bgp.Result, len(cfgs))
	dumps := make([]map[string][]byte, len(cfgs))
	for i, cfg := range cfgs {
		cfg.NoFastForward = true
		cfg.NoEpochMemo = true
		cfg.DumpDir = filepath.Join(root, fmt.Sprintf("golden%d", i))
		if err := os.MkdirAll(cfg.DumpDir, 0o755); err != nil {
			t.Fatal(err)
		}
		res, err := bgp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		dumps[i] = readDumpBytes(t, cfg.DumpDir)
	}
	return results, dumps
}

// checkpointDumpBytes reads the persisted dump files of run index from the
// checkpoint directory.
func checkpointDumpBytes(t *testing.T, ckptDir string, index int, cfg bgp.RunConfig) map[string][]byte {
	t.Helper()
	return readDumpBytes(t, filepath.Join(ckptDir, bgp.RunKey(index, cfg)))
}

// sweepEvents returns an observer and a reader of the sweep events it has
// seen: checkpoint_restore counts the runs a Resume pass restored,
// checkpoint_persist the ones it executed.
func sweepEvents() (*obs.Recorder, func(obs.SweepEvent) int) {
	reg := obs.NewRegistry()
	return obs.NewRecorder(reg, nil), func(ev obs.SweepEvent) int {
		return int(reg.Snapshot().Counters[obs.MetricSweepPrefix+string(ev)])
	}
}

// onPersist is a recorder that also calls hook, on the worker, each time a
// run is committed to the checkpoint.
type onPersist struct {
	*obs.Recorder
	hook func()
}

func (o onPersist) SweepEvent(ev obs.SweepEvent) {
	o.Recorder.SweepEvent(ev)
	if ev == obs.EventCheckpointPersist {
		o.hook()
	}
}

// TestChaosDeterminism injects a seeded fault schedule — transient errors,
// a panic, a stall past the per-run deadline, write-path dump corruption,
// and one run whose transient faults outlast the retry budget — into a
// ContinueOnError sweep with checkpointing, then resumes. The recovered
// sweep's persisted dumps must be byte-identical to the fault-free serial
// golden runs.
func TestChaosDeterminism(t *testing.T) {
	cases := determinismCases() // one benchmark per operating mode
	cfgs := append(cases, cases[0], cases[3])
	goldenOf := []int{0, 1, 2, 3, 0, 3} // cfg index → golden case index

	root := t.TempDir()
	golden, goldenDumps := goldenRuns(t, root, cases)

	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = bgp.RunKey(i, cfg)
	}
	inj := faults.New(0xB1_0E6E)
	inj.Arm(keys[0], faults.Transient, faults.Transient)                                     // heals within the retry budget
	inj.Arm(keys[1], faults.Panic)                                                           // panic isolation + retry
	inj.Arm(keys[2], faults.Stall)                                                           // deadline overrun + retry
	inj.Arm(keys[3], faults.CorruptDump)                                                     // resume validation must catch it
	inj.Arm(keys[4], faults.Transient, faults.Transient, faults.Transient, faults.Transient) // outlasts retries
	// keys[5] unarmed: the fault-free control through the same machinery.

	ckptDir := filepath.Join(root, "ckpt")
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:         len(cfgs),
		Retries:         2,
		RunTimeout:      3 * time.Second,
		ContinueOnError: true,
		CheckpointDir:   ckptDir,
		Faults:          inj,
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("chaos pass error = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 1 || se.Failed[0].Index != 4 {
		t.Fatalf("chaos pass failures = %+v, want exactly run 4", se.Failed)
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Errorf("run 4's exhausted transient fault does not unwrap: %v", err)
	}
	if chaos[4] != nil {
		t.Error("failed run 4 returned a result")
	}
	for _, i := range []int{0, 1, 2, 3, 5} {
		if chaos[i] == nil {
			t.Fatalf("run %d produced no result despite recovery", i)
		}
		if !reflect.DeepEqual(chaos[i].Metrics, golden[goldenOf[i]].Metrics) {
			t.Errorf("run %d metrics diverge from golden after fault recovery", i)
		}
	}
	// Every injected kind actually fired.
	fired := make(map[faults.Kind]bool)
	for _, ev := range inj.Log() {
		fired[ev.Kind] = true
	}
	for _, k := range []faults.Kind{faults.Transient, faults.Panic, faults.Stall, faults.CorruptDump} {
		if !fired[k] {
			t.Errorf("fault kind %v never fired", k)
		}
	}

	// Resume: restores pristine checkpoints, re-runs the corrupted and the
	// failed run, and converges.
	rec, seen := sweepEvents()
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Resume:        true,
		Observer:      rec,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	// Runs 0, 1, 2 and 5 persisted pristine dumps; run 3's artifact was
	// corrupted on the write path and run 4 never completed.
	if r := seen(obs.EventCheckpointRestore); r != 4 {
		t.Errorf("resume restored %d runs, want 4", r)
	}
	if e := seen(obs.EventCheckpointPersist); e != 2 {
		t.Errorf("resume executed %d runs, want 2 (the corrupted and the failed one)", e)
	}

	// The exactness contract: after retries and resume, every run's
	// persisted dump set is byte-identical to the fault-free serial run.
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

// TestChaosMemoizedDeterminism runs the fault-recovery contract with the
// execution accelerators armed: a shared compile cache (so retries and
// resumed runs hit memoized programs), fast-forwarding and the epoch memo.
// A sweep with injected faults takes the partial-output path
// (ContinueOnError with one run outlasting its retry budget — the CLI's
// exit-status-3 case), then resumes from its checkpoints against the warm
// cache; every recovered run's persisted dumps must stay byte-identical
// to fault-free serial runs that never saw cache, faults, fast-forwarding
// or the epoch memo. Two fault-free sweeps walk the memo through its
// admission policy first (first sight, then recording), so every run of
// the chaos pass replays memoized epochs — an interrupted, retried,
// fast-forwarded, epoch-replayed sweep still restores the slow path's
// bytes exactly.
func TestChaosMemoizedDeterminism(t *testing.T) {
	cases := collectivesOnlyCases()
	cfgs := append(cases, cases[0], cases[1])
	goldenOf := []int{0, 1, 2, 3, 0, 1} // cfg index → golden case index

	root := t.TempDir()
	golden, goldenDumps := goldenRuns(t, root, cases)

	for _, leg := range []string{"first-sight", "recording"} {
		res, err := bgp.RunAll(context.Background(), cases, bgp.SweepConfig{Workers: 1})
		if err != nil {
			t.Fatalf("%s sweep: %v", leg, err)
		}
		for i := range res {
			if !reflect.DeepEqual(res[i].Metrics, golden[i].Metrics) {
				t.Errorf("%s sweep, run %d: metrics diverge from golden", leg, i)
			}
		}
	}

	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = bgp.RunKey(i, cfg)
	}
	inj := faults.New(0xCAC4E)
	inj.Arm(keys[0], faults.Transient)                                     // heals; its retry recompiles from cache
	inj.Arm(keys[2], faults.Panic)                                         // panic isolation
	inj.Arm(keys[4], faults.Transient, faults.Transient, faults.Transient) // outlasts Retries=1: partial output
	cache := bgp.NewProgCache(16)
	for i := range cfgs {
		cfgs[i].ProgCache = cache
	}
	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}

	ckptDir := filepath.Join(root, "ckpt")
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:         len(cfgs),
		Retries:         1,
		ContinueOnError: true,
		CheckpointDir:   ckptDir,
		Faults:          inj,
		Observer:        rec,
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("chaos pass error = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 1 || se.Failed[0].Index != 4 {
		t.Fatalf("chaos pass failures = %+v, want exactly run 4", se.Failed)
	}
	if chaos[4] != nil {
		t.Error("failed run 4 returned a result")
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Error("shared program cache saw no hits; memoization never engaged")
	}
	// Every run that completed must have replayed memoized epochs, by its
	// own counters — the byte comparison below would be vacuous against a
	// fast path that never ran.
	if len(rec.runs) != len(cfgs)-1 {
		t.Errorf("chaos pass completed %d runs, want %d", len(rec.runs), len(cfgs)-1)
	}
	for _, st := range rec.runs {
		requireReplayed(t, st)
		if st.EpochMemoHits == 0 {
			t.Errorf("%s: epoch memo never replayed an epoch", st.Label)
		}
	}

	// Resume re-runs only the failed run — now entirely from cache hits.
	before := cache.Stats()
	resumeRec, seen := sweepEvents()
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Resume:        true,
		Observer:      resumeRec,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	if r := seen(obs.EventCheckpointRestore); r != 5 {
		t.Errorf("resume restored %d runs, want 5", r)
	}
	if e := seen(obs.EventCheckpointPersist); e != 1 {
		t.Errorf("resume executed %d runs, want 1 (the failed one)", e)
	}
	if s := cache.Stats(); s.Misses != before.Misses {
		t.Errorf("resume compiled %d programs fresh; the warm cache should serve them all",
			s.Misses-before.Misses)
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

// TestSweepResumeAfterCancel interrupts a checkpointed sweep mid-flight
// (context cancel at ~50% completion) and relaunches it with Resume: only
// the unfinished runs re-execute, and the final results equal the clean
// serial ones.
func TestSweepResumeAfterCancel(t *testing.T) {
	cases := determinismCases()
	cfgs := append(cases, cases...) // 8 runs, two per operating mode
	root := t.TempDir()
	golden, goldenDumps := goldenRuns(t, root, cases)

	ckptDir := filepath.Join(root, "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	firstRec, _ := sweepEvents()
	_, err := bgp.RunAll(ctx, cfgs, bgp.SweepConfig{
		Workers:       2,
		CheckpointDir: ckptDir,
		Observer: onPersist{firstRec, func() {
			if done.Add(1) == int64(len(cfgs)/2) {
				cancel() // interrupt at ~50% completion
			}
		}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	completed := done.Load()
	if completed >= int64(len(cfgs)) {
		t.Fatal("every run completed; cancellation came too late to test resume")
	}

	rec, seen := sweepEvents()
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       2,
		CheckpointDir: ckptDir,
		Resume:        true,
		Observer:      rec,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	// Everything checkpointed before the cancel was restored, not re-run;
	// with 2 workers at most 2 runs were in flight past the cancel point.
	restored := int64(seen(obs.EventCheckpointRestore))
	if restored < completed || restored > completed+2 {
		t.Errorf("restored %d runs, want between %d and %d", restored, completed, completed+2)
	}
	if restored == int64(len(cfgs)) {
		t.Error("resume restored every run; nothing was left to re-execute")
	}
	// The resumed sweep's results and persisted dumps match the clean
	// serial baseline — the same final figure series.
	for i, cfg := range cfgs {
		g := golden[i%len(cases)]
		if !reflect.DeepEqual(results[i].Metrics, g.Metrics) {
			t.Errorf("run %d: resumed metrics differ from serial baseline", i)
		}
		want := goldenDumps[i%len(cases)]
		got := checkpointDumpBytes(t, ckptDir, i, cfg)
		for name, blob := range want {
			if !bytes.Equal(blob, got[name]) {
				t.Errorf("run %d: dump %s differs from serial baseline", i, name)
			}
		}
	}
}

// TestResumeOnlyRendersPartialCheckpoints pins the graceful-degradation
// path bgpreport builds on: with ResumeOnly + ContinueOnError, runs present
// in the checkpoint are restored, absent ones fail with ErrNotCheckpointed
// naming the run — by benchmark, or by spec name for a spec run — and
// nothing executes.
func TestResumeOnlyRendersPartialCheckpoints(t *testing.T) {
	cases := determinismCases()
	hpl := mustHPLConfig()
	cfgs := append(cases[:2:2], hpl)
	ckptDir := t.TempDir()

	// Checkpoint only the first run.
	if _, err := bgp.RunAll(context.Background(), cfgs[:1], bgp.SweepConfig{
		Workers: 1, CheckpointDir: ckptDir,
	}); err != nil {
		t.Fatal(err)
	}

	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:         2,
		CheckpointDir:   ckptDir,
		ResumeOnly:      true,
		ContinueOnError: true,
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *sweep.SweepError", err)
	}
	if !errors.Is(err, bgp.ErrNotCheckpointed) {
		t.Errorf("missing run's error does not unwrap to ErrNotCheckpointed: %v", err)
	}
	if results[0] == nil || results[0].Metrics == nil {
		t.Error("checkpointed run was not restored")
	}
	if results[1] != nil {
		t.Error("uncheckpointed run produced a result under ResumeOnly")
	}
	if len(se.Failed) != 2 || se.Failed[0].Index != 1 || se.Failed[1].Index != 2 {
		t.Fatalf("Failed = %+v, want exactly runs 1 and 2", se.Failed)
	}
	for i, name := range []string{cfgs[1].Benchmark, hpl.Spec.Name} {
		want := fmt.Sprintf("run %d (%s.%v %v)", i+1, name, cfgs[i+1].Class, cfgs[i+1].Mode)
		if got := se.Failed[i].Err.Error(); !strings.Contains(got, want) {
			t.Errorf("run %d's error %q does not name the run as %q", i+1, got, want)
		}
	}
}

// TestResumeRestoresIntoDumpDir pins that a restored run leaves its DumpDir
// as a live run does: the same files, the same bytes (bgprun -dump d
// -checkpoint ck -resume reports the dumps it wrote).
func TestResumeRestoresIntoDumpDir(t *testing.T) {
	cfg := determinismCases()[3]
	root := t.TempDir()
	live, restoredDir := filepath.Join(root, "live"), filepath.Join(root, "restored")
	for _, dir := range []string{live, restoredDir} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sc := bgp.SweepConfig{CheckpointDir: filepath.Join(root, "ckpt")}
	cfg.DumpDir = live
	if _, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, sc); err != nil {
		t.Fatal(err)
	}
	rec, seen := sweepEvents()
	sc.Resume, sc.Observer = true, rec
	cfg.DumpDir = restoredDir
	if _, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, sc); err != nil {
		t.Fatal(err)
	}
	if seen(obs.EventCheckpointRestore) != 1 {
		t.Fatal("the second pass did not restore the run; the comparison below would be vacuous")
	}
	want := readDumpBytes(t, live)
	got, _ := filepath.Glob(filepath.Join(restoredDir, "*"))
	if len(got) != len(want) {
		t.Fatalf("restored run left %d files in its DumpDir, the live run %d", len(got), len(want))
	}
	for name, blob := range readDumpBytes(t, restoredDir) {
		if !bytes.Equal(blob, want[name]) {
			t.Errorf("restored run's %s differs from the live run's", name)
		}
	}
}

// TestResumeReexecutesTimelineRuns pins that a run sampling a timeline is
// never served from the checkpoint, whose entries hold dumps and no samples:
// the Resume pass executes it again and its Result carries the timeline
// (bgprun -timeline t.csv -checkpoint ck -resume writes t.csv).
func TestResumeReexecutesTimelineRuns(t *testing.T) {
	cfg := determinismCases()[3]
	cfg.TimelineInterval = 100_000
	cfg.TimelineEvents = []string{"BGP_PU0_CYCLES"}
	sc := bgp.SweepConfig{CheckpointDir: t.TempDir()}
	first, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, sc)
	if err != nil {
		t.Fatal(err)
	}
	rec, seen := sweepEvents()
	sc.Resume, sc.Observer = true, rec
	resumed, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0].Timeline == nil {
		t.Fatal("resumed timeline run has no Timeline")
	}
	if got, want := len(resumed[0].Timeline.Samples()), len(first[0].Timeline.Samples()); got != want || got == 0 {
		t.Errorf("resumed run sampled %d points, the first run %d", got, want)
	}
	if seen(obs.EventCheckpointRestore) != 0 || seen(obs.EventCheckpointPersist) != 1 {
		t.Errorf("resume pass restored %d and persisted %d runs, want 0 and 1",
			seen(obs.EventCheckpointRestore), seen(obs.EventCheckpointPersist))
	}
}

// TestRunKeyDistinguishesConfigs pins that checkpoint keys separate
// different configurations at the same sweep index (bgpreport shares one
// checkpoint directory across every figure's sweep).
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	cases := determinismCases()
	if bgp.RunKey(0, cases[0]) == bgp.RunKey(0, cases[1]) {
		t.Error("different configs share a checkpoint key at index 0")
	}
	if bgp.RunKey(0, cases[0]) == bgp.RunKey(1, cases[0]) {
		t.Error("different indices share a checkpoint key")
	}
	withDump := cases[0]
	withDump.DumpDir = "/somewhere/else"
	if bgp.RunKey(0, cases[0]) != bgp.RunKey(0, withDump) {
		t.Error("DumpDir perturbs the checkpoint key; resume would re-run everything")
	}
	// Two valid wire configurations that met at the 32-bit key's birthday
	// bound (both hashed to run0000-eadf053c): the key is bgpd's flight key
	// and job-id input, so a shared key served one run's results for the
	// other.
	a := bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM, L3Bytes: 1553408}
	b := a
	b.L3Bytes = 20154112
	if bgp.RunKey(0, a) == bgp.RunKey(0, b) {
		t.Errorf("l3=%d and l3=%d share checkpoint key %s", a.L3Bytes, b.L3Bytes, bgp.RunKey(0, a))
	}
}

// TestSequentialSweepsShareCheckpointDir is bgpreport's shape: one sweep per
// figure, each its own RunAll on the one CheckpointDir, none of them with
// Resume. Every sweep's runs must stay committed — the directory indexes
// itself entry by entry, so a later sweep cannot drop an earlier one's — and
// a following Resume pass of any of them restores every run. A manifest left
// behind by an older layout is neither read nor rewritten.
func TestSequentialSweepsShareCheckpointDir(t *testing.T) {
	cases := determinismCases()
	first, second := cases[3:], cases[:2]
	ckptDir := t.TempDir()
	stale := filepath.Join(ckptDir, "MANIFEST.json")
	staleBytes := []byte(`{"version":2,"entries":{"run0000-fa7d2d4e":{"config":"x","files":[]}}}`)
	if err := os.WriteFile(stale, staleBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfgs := range [][]bgp.RunConfig{first, second} {
		if _, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: 2, CheckpointDir: ckptDir}); err != nil {
			t.Fatal(err)
		}
	}
	store, err := bgp.OpenCheckpointStore(ckptDir, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 3 {
		t.Errorf("store holds %d committed runs after two sequential sweeps, want 3", n)
	}
	for _, cfgs := range [][]bgp.RunConfig{first, second} {
		rec, seen := sweepEvents()
		if _, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
			Workers: 2, CheckpointDir: ckptDir, Resume: true, Observer: rec,
		}); err != nil {
			t.Fatal(err)
		}
		if r := seen(obs.EventCheckpointRestore); r != len(cfgs) {
			t.Errorf("resume restored %d of %d runs", r, len(cfgs))
		}
	}
	if got, err := os.ReadFile(stale); err != nil || !bytes.Equal(got, staleBytes) {
		t.Errorf("stale MANIFEST.json was touched: %q, %v", got, err)
	}
}

// TestConcurrentStoresShareDirectory pins (under -race in CI) that the store
// has no shared index to lose: two independently opened handles persisting
// disjoint keys at the same time, plus two writers of one key, leave every
// entry committed and restorable.
func TestConcurrentStoresShareDirectory(t *testing.T) {
	cfg := determinismCases()[3]
	res, err := bgp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const perWriter = 8
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			store, err := bgp.OpenCheckpointStore(dir, false)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWriter; i++ {
				for _, key := range []string{fmt.Sprintf("writer%d-%02d", w, i), "shared"} {
					if err := store.Persist(key, cfg, res); err != nil {
						t.Errorf("writer %d: persisting %s: %v", w, key, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	store, err := bgp.OpenCheckpointStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := store.Len(), 2*perWriter+1; n != want {
		t.Errorf("store holds %d committed entries, want %d", n, want)
	}
	keys := []string{"shared"}
	for w := 0; w < 2; w++ {
		for i := 0; i < perWriter; i++ {
			keys = append(keys, fmt.Sprintf("writer%d-%02d", w, i))
		}
	}
	for _, key := range keys {
		got := store.Restore(key, cfg)
		if got == nil {
			t.Errorf("entry %s does not restore", key)
			continue
		}
		if !reflect.DeepEqual(got.Metrics, res.Metrics) {
			t.Errorf("entry %s restores different metrics", key)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp")); len(tmps) != 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}
