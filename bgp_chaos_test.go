package bgp_test

// The chaos harness of the resilient sweep layer. The exactness contract is
// that recovery machinery never perturbs simulation results: with a fault
// schedule injecting panics and dump corruption, a checkpointed sweep
// reports the panicked runs as failed, and running it again on the same
// directory must converge to counter dumps byte-identical to a clean serial
// run — across all four operating modes (determinismCases covers one
// benchmark per mode). Each run gets one attempt, so recovery is a second
// sweep that restores what the first committed, never a retry. The fault
// injector draws from its own RNG streams, so arming it changes when runs
// fail, never what they compute.

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
// the epoch memo disabled — and returns the
// per-config results and raw dump bytes: the reference every recovered
// sweep must reproduce byte-for-byte. The sweeps under test keep the
// accelerations at their defaults, so every chaos comparison in this file
// also pins the accelerated paths against the unaccelerated reference.
func goldenRuns(t *testing.T, root string, cfgs []bgp.RunConfig) ([]*bgp.Result, []map[string][]byte) {
	t.Helper()
	results := make([]*bgp.Result, len(cfgs))
	dumps := make([]map[string][]byte, len(cfgs))
	for i, cfg := range cfgs {
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

// checkpointDumpBytes reads the persisted dump files of cfg's identity from
// the checkpoint directory, the entry every position of that identity shares.
func checkpointDumpBytes(t *testing.T, ckptDir string, cfg bgp.RunConfig) map[string][]byte {
	t.Helper()
	return readDumpBytes(t, filepath.Join(ckptDir, bgp.RunKey(0, cfg)))
}

// sweepEvents returns an observer and a reader of the sweep events it has
// seen: checkpoint_restore counts the runs a pass restored,
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

// requireFired fails t unless, for each position key in armed, the injector
// fired that kind there: a fault armed per sweep position still fires at
// the position it names when positions share a checkpoint entry.
func requireFired(t *testing.T, inj *faults.Injector, armed map[string]faults.Kind) {
	t.Helper()
	fired := make(map[string]map[faults.Kind]bool)
	for _, ev := range inj.Log() {
		if fired[ev.Key] == nil {
			fired[ev.Key] = make(map[faults.Kind]bool)
		}
		fired[ev.Key][ev.Kind] = true
	}
	for key, kind := range armed {
		if !fired[key][kind] {
			t.Errorf("fault %v armed on %s never fired", kind, key)
		}
	}
}

// onRunDone is a recorder that also calls hook, on the worker, when its run
// has finished simulating and before the sweep persists it.
type onRunDone struct {
	*obs.Recorder
	hook func()
}

func (o onRunDone) RunDone(st obs.RunStats) {
	o.hook()
	o.Recorder.RunDone(st)
}

// TestChaosDeterminism injects a fault schedule — a panic in a run no other
// position shares, a panic in a run whose twin completes, and write-path
// dump corruption — into a checkpointed sweep, then runs it again on the
// same directory. The panicked positions are the sweep's failures; the
// second sweep's persisted dumps must be byte-identical to the fault-free
// serial golden runs. Faults are armed per sweep position and consulted
// before the restore, so each fires where it was armed; the checkpoint
// entry is the identity's, which the repeated positions 4 and 5 share with
// 0 and 3.
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
	inj.Arm(keys[1], faults.Panic)       // panic isolation; the second pass executes it
	inj.Arm(keys[3], faults.CorruptDump) // restore validation must catch it
	inj.Arm(keys[4], faults.Panic)       // its twin, run 0, commits the entry
	// keys[0], keys[2] and keys[5] unarmed: fault-free controls through
	// the same machinery.

	// The corrupting writer (3) and the clean control (5) write one entry,
	// and each probes it for a restore first. The clean twin waits, between
	// simulating and persisting, until the writer has passed its probe, so
	// both miss; the writer then waits until its twin has committed, so the
	// entry left behind is always the corrupt one and restore validation
	// must catch it.
	ckptDir := filepath.Join(root, "ckpt")
	twinEntry := filepath.Join(ckptDir, bgp.RunKey(0, cfgs[5]), "ENTRY.json")
	writerProbed, twinCommitted := make(chan struct{}), make(chan struct{})
	var once sync.Once
	await := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Error(what)
		}
	}
	cfgs[3].Observer = onRunDone{obs.NewRecorder(obs.NewRegistry(), nil), func() {
		close(writerProbed)
		await(twinCommitted, "run 5 never committed the entry run 3 shares")
	}}
	cfgs[5].Observer = onRunDone{obs.NewRecorder(obs.NewRegistry(), nil), func() {
		await(writerProbed, "run 3 never passed its restore probe")
	}}
	chaosReg := obs.NewRegistry()
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Faults:        inj,
		Observer: onPersist{obs.NewRecorder(chaosReg, nil), func() {
			if _, err := os.Stat(twinEntry); err == nil {
				once.Do(func() { close(twinCommitted) })
			}
		}},
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("chaos pass error = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 2 || se.Failed[0].Index != 1 || se.Failed[1].Index != 4 {
		t.Fatalf("chaos pass failures = %+v, want exactly runs 1 and 4", se.Failed)
	}
	for _, f := range se.Failed {
		var pe *sweep.RunPanicError
		if !errors.As(f.Err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "injected panic") {
			t.Errorf("run %d failed with %v, want its injected panic", f.Index, f.Err)
		}
		if chaos[f.Index] != nil {
			t.Errorf("failed run %d returned a result", f.Index)
		}
	}
	// One attempt per run: each panic is one failed run, never retried.
	counters := chaosReg.Snapshot().Counters
	for _, ev := range []obs.SweepEvent{obs.EventPanic, obs.EventRunFailed} {
		if n := counters[obs.MetricSweepPrefix+string(ev)]; n != 2 {
			t.Errorf("%s%s = %d, want 2", obs.MetricSweepPrefix, ev, n)
		}
	}
	for _, i := range []int{0, 2, 3, 5} {
		if chaos[i] == nil {
			t.Fatalf("run %d produced no result despite recovery", i)
		}
		if !reflect.DeepEqual(chaos[i].Metrics, golden[goldenOf[i]].Metrics) {
			t.Errorf("run %d metrics diverge from golden after fault recovery", i)
		}
	}
	// Every injected kind actually fired, at the position it was armed on.
	requireFired(t, inj, map[string]faults.Kind{
		keys[1]: faults.Panic, keys[3]: faults.CorruptDump, keys[4]: faults.Panic,
	})
	if n := len(inj.Log()); n != 3 {
		t.Errorf("injector fired %d faults, want 3 (one attempt per run)", n)
	}

	// The chaos pass restored nothing: every entry it could have restored
	// was uncommitted at its probe, or its position panicked first.
	if n := counters[obs.MetricSweepPrefix+string(obs.EventCheckpointRestore)]; n != 0 {
		t.Errorf("chaos pass restored %d runs, want 0", n)
	}

	// Run the sweep again, one position at a time and with the hooks
	// removed: it restores pristine checkpoints, executes the panicked run
	// nobody else completed, re-runs the corrupted entry, and converges.
	cfgs[3].Observer, cfgs[5].Observer = nil, nil
	rec, seen := sweepEvents()
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       1,
		CheckpointDir: ckptDir,
		Observer:      rec,
	})
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	// Runs 0 and 2 persisted pristine dumps, and failed run 4 is run 0's
	// identity, so those three restore. Failed run 1 has no entry and
	// executes. Run 3's entry was corrupted on the write path, so run 3
	// re-executes and rewrites it, and run 5 restores the rewrite.
	if r := seen(obs.EventCheckpointRestore); r != 4 {
		t.Errorf("resume restored %d runs, want 4", r)
	}
	if e := seen(obs.EventCheckpointPersist); e != 2 {
		t.Errorf("resume executed %d runs, want 2 (the panicked and the corrupted one)", e)
	}

	// The exactness contract: after panics, corruption and a second pass, every run's
	// persisted dump set is byte-identical to the fault-free serial run.
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

// TestChaosMemoizedDeterminism runs the fault-recovery contract with the
// execution accelerators armed: a shared compile cache (so resumed runs
// hit memoized programs) and the epoch memo.
// A sweep with injected faults takes the partial-output path (one
// panicked run — the CLI's exit-status-3 case) and persists one corrupted
// entry, then runs again on its checkpoints against the warm cache; every recovered run's persisted dumps must stay
// byte-identical to fault-free serial runs that never saw cache, faults or
// the epoch memo. Two fault-free sweeps walk the memo through its admission
// policy first (first sight, then recording), so every run of the chaos
// pass replays memoized epochs — an interrupted, epoch-replayed sweep still
// restores the slow path's bytes exactly.
func TestChaosMemoizedDeterminism(t *testing.T) {
	cases := collectivesOnlyCases()
	cfgs := append(cases, cases[0], cases[1])
	goldenOf := []int{0, 1, 2, 3, 0, 1} // cfg index → golden case index

	root := t.TempDir()
	golden, goldenDumps := goldenRuns(t, root, cases)

	// The warm-up sweeps share the chaos pass's compile cache, so the
	// resumed run below, whose identity the chaos pass never completes,
	// compiles nothing fresh.
	cache := bgp.NewProgCache(16)
	for i := range cases {
		cases[i].ProgCache = cache
	}
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
	inj.Arm(keys[2], faults.CorruptDump) // completes; resume re-executes it
	inj.Arm(keys[3], faults.Panic)       // partial output, no twin
	for i := range cfgs {
		cfgs[i].ProgCache = cache
	}
	chaosReg := obs.NewRegistry()
	rec := &runLog{Recorder: obs.NewRecorder(chaosReg, nil)}

	ckptDir := filepath.Join(root, "ckpt")
	warm := cache.Stats()
	chaos, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Faults:        inj,
		Observer:      rec,
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("chaos pass error = %v, want *sweep.SweepError", err)
	}
	if len(se.Failed) != 1 || se.Failed[0].Index != 3 {
		t.Fatalf("chaos pass failures = %+v, want exactly run 3", se.Failed)
	}
	if chaos[3] != nil {
		t.Error("failed run 3 returned a result")
	}
	var pe *sweep.RunPanicError
	if !errors.As(se.Failed[0].Err, &pe) {
		t.Errorf("run 3 failed with %v, want its injected panic", se.Failed[0].Err)
	}
	requireFired(t, inj, map[string]faults.Kind{
		keys[2]: faults.CorruptDump, keys[3]: faults.Panic,
	})
	if s := cache.Stats(); s.Hits == warm.Hits {
		t.Error("shared program cache saw no hits; memoization never engaged")
	}
	// Every run that completed simulated or restored: twins 4 and 5
	// restore when runs 0 and 1 commit before their probe, and simulate
	// otherwise. Every simulated run must have replayed memoized epochs,
	// by its own counters — the byte comparison below would be vacuous
	// against a fast path that never ran.
	restored := int(chaosReg.Snapshot().Counters[obs.MetricSweepPrefix+string(obs.EventCheckpointRestore)])
	if len(rec.runs)+restored != len(cfgs)-1 || restored > 2 {
		t.Errorf("chaos pass simulated %d runs and restored %d, want %d in all, at most the 2 twins restored",
			len(rec.runs), restored, len(cfgs)-1)
	}
	for _, st := range rec.runs {
		requireReplayed(t, st)
		if st.EpochMemoHits == 0 {
			t.Errorf("%s: epoch memo never replayed an epoch", st.Label)
		}
	}

	// The second pass re-runs only the failed run and the corrupted entry
	// — now entirely from cache hits. Runs 0, 1, 4 and 5 restore the
	// entries runs 0 and 1 (or their twins) wrote.
	before := cache.Stats()
	resumeRec, seen := sweepEvents()
	resumed, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       len(cfgs),
		CheckpointDir: ckptDir,
		Observer:      resumeRec,
	})
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if r := seen(obs.EventCheckpointRestore); r != 4 {
		t.Errorf("resume restored %d runs, want 4", r)
	}
	if e := seen(obs.EventCheckpointPersist); e != 2 {
		t.Errorf("resume executed %d runs, want 2 (the failed and the corrupted one)", e)
	}
	if s := cache.Stats(); s.Misses != before.Misses {
		t.Errorf("resume compiled %d programs fresh; the warm cache should serve them all",
			s.Misses-before.Misses)
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

// TestSweepResumeAfterCancel interrupts a checkpointed sweep mid-flight
// (context cancel once half the identities are committed) and relaunches it
// on the same directory: only the unfinished identities re-execute, and the
// final results equal the clean serial ones.
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
			if done.Add(1) == int64(len(cases)/2) {
				cancel() // interrupt at half the identities
			}
		}},
	})
	var se *sweep.SweepError
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) || len(se.Skipped) == 0 {
		t.Fatalf("interrupted sweep returned %v, want a *sweep.SweepError skipping runs for context.Canceled", err)
	}
	completed := done.Load()
	if completed >= int64(len(cases)) {
		t.Fatal("every identity completed; cancellation came too late to test resume")
	}
	// Claims are sequential and one run at most was in flight past the
	// cancel, so only the first three positions ran: each commit is its own
	// identity.
	store, err := bgp.OpenCheckpointStore(ckptDir, true)
	if err != nil {
		t.Fatal(err)
	}
	committed := store.Len()
	if int64(committed) != completed {
		t.Errorf("%d commits left %d entries, want one per commit", completed, committed)
	}

	rec, seen := sweepEvents()
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
		Workers:       1,
		CheckpointDir: ckptDir,
		Observer:      rec,
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	// Position by position, the first occurrence of each identity not
	// committed before the cancel re-executes; every other position
	// restores, the second occurrences from entries this pass wrote.
	if e := seen(obs.EventCheckpointPersist); e != len(cases)-committed {
		t.Errorf("resume executed %d runs, want %d", e, len(cases)-committed)
	}
	if r := seen(obs.EventCheckpointRestore); r != len(cfgs)-(len(cases)-committed) {
		t.Errorf("resume restored %d runs, want %d", r, len(cfgs)-(len(cases)-committed))
	}
	// The resumed sweep's results and persisted dumps match the clean
	// serial baseline — the same final figure series.
	for i, cfg := range cfgs {
		g := golden[i%len(cases)]
		if !reflect.DeepEqual(results[i].Metrics, g.Metrics) {
			t.Errorf("run %d: resumed metrics differ from serial baseline", i)
		}
		want := goldenDumps[i%len(cases)]
		got := checkpointDumpBytes(t, ckptDir, cfg)
		for name, blob := range want {
			if !bytes.Equal(blob, got[name]) {
				t.Errorf("run %d: dump %s differs from serial baseline", i, name)
			}
		}
	}
}

// TestResumeOnlyRendersPartialCheckpoints pins the graceful-degradation
// path bgpreport builds on: with ResumeOnly, runs present in the
// checkpoint are restored, absent ones fail with ErrNotCheckpointed
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
		Workers:       2,
		CheckpointDir: ckptDir,
		ResumeOnly:    true,
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
// as a live run does: the same files, the same bytes (a second bgprun -dump
// d -checkpoint ck reports the dumps it wrote).
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
	sc.Observer = rec
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
// the second pass executes it again and its Result carries the timeline
// (a second bgprun -timeline t.csv -checkpoint ck writes t.csv).
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
	sc.Observer = rec
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

// TestRunKeyDistinguishesConfigs pins that identity keys (index 0) separate
// different configurations, since every sweep and tool shares one checkpoint
// directory, and that the fault injector's position keys separate indices.
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	cases := determinismCases()
	if bgp.RunKey(0, cases[0]) == bgp.RunKey(0, cases[1]) {
		t.Error("different configs share a checkpoint key at index 0")
	}
	if bgp.RunKey(0, cases[0]) == bgp.RunKey(1, cases[0]) {
		t.Error("different indices share a fault key")
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
// figure, each its own RunAll on the one CheckpointDir. Every sweep's runs
// must stay committed — the directory indexes itself entry by entry, so a
// later sweep cannot drop an earlier one's — and a following pass of any of
// them restores every run. Entries are keyed by identity, not position: the
// second sweep repeats the first's point at another index and restores it,
// adding no entry, and a pass with every identity at an index no sweep gave
// it restores them all. A manifest left
// behind by an older layout is neither read nor rewritten.
func TestSequentialSweepsShareCheckpointDir(t *testing.T) {
	cases := determinismCases()
	first, second := cases[3:], append(cases[:2:2], cases[3])
	moved := []bgp.RunConfig{cases[1], cases[3], cases[0]}
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
		t.Errorf("store holds %d committed runs after two sequential sweeps, want one per identity, 3", n)
	}
	for _, cfgs := range [][]bgp.RunConfig{first, second, moved} {
		rec, seen := sweepEvents()
		if _, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{
			Workers: 2, CheckpointDir: ckptDir, Observer: rec,
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

// TestSecondSweepRestoresEveryRun pins that a checkpoint directory serves
// what it holds with no other setting: a second RunAll of the same runs on
// the same CheckpointDir restores every one — nothing simulates — and
// persists none, leaving every committed file the first sweep wrote in
// place, with the first sweep's metrics.
func TestSecondSweepRestoresEveryRun(t *testing.T) {
	cfgs := determinismCases()
	sc := bgp.SweepConfig{CheckpointDir: t.TempDir()}
	first, err := bgp.RunAll(context.Background(), cfgs, sc)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join(sc.CheckpointDir, "*", "*"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("first sweep committed no files (%v)", err)
	}
	before := make([]os.FileInfo, len(committed))
	for k, name := range committed {
		if before[k], err = os.Stat(name); err != nil {
			t.Fatal(err)
		}
	}

	// Each run's own observer sees its simulation, if any.
	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
	for i := range cfgs {
		cfgs[i].Observer = rec
	}
	second, err := bgp.RunAll(context.Background(), cfgs, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.runs) != 0 {
		t.Errorf("second sweep simulated %d of %d runs, want none", len(rec.runs), len(cfgs))
	}
	for i := range cfgs {
		if second[i] == nil || !reflect.DeepEqual(second[i].Metrics, first[i].Metrics) {
			t.Errorf("run %d: second sweep's result differs from the first's", i)
		}
	}
	// A persist replaces each file by rename, so a rewritten file is
	// another file even when its bytes are the same.
	for k, name := range committed {
		after, err := os.Stat(name)
		if err != nil || !os.SameFile(before[k], after) {
			t.Errorf("second sweep rewrote %s (%v)", name, err)
		}
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
