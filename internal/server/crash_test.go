package server_test

// Crash durability: the write-ahead job journal makes an accepted
// submission survive the daemon that accepted it. These tests kill a
// server with work in every pre-terminal state — running, still queued —
// restart on the same checkpoint directory, and require the SAME job ids
// to converge to dumps byte-identical to an uninterrupted run. They also exercise the two defensive edges of the
// replay: the per-job recovery budget (a spec that kills the daemon every
// time must not wedge every future boot) and the torn-tail truncation (a
// crash mid-append loses at most the record being written, never the log).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/journal"
	"bgpsim/internal/server"
)

// TestCrashRecoveryReplaysJournal is the end-to-end crash golden. A first
// instance accepts three single-run jobs: job 0 completes and persists,
// job 1 stalls mid-run, job 2 never leaves the queue. The instance dies.
// A second instance on the same directory must replay the journal,
// re-queue the unfinished jobs without any resubmission, and serve all
// three ids done with dumps byte-identical to the uninterrupted baseline —
// job 0's replay costing only store hits.
func TestCrashRecoveryReplaysJournal(t *testing.T) {
	specs := fastSpecs()
	cfgs := make([]bgp.RunConfig, len(specs))
	goldens := make([][][]byte, len(specs))
	for i, rs := range specs {
		cfgs[i] = compileSpec(t, rs)
		goldens[i] = goldenDumps(t, cfgs[i])
	}
	ckptDir := t.TempDir()

	// First instance: one job worker serializes the jobs; the fault
	// injector stalls job 1's only run until the server dies.
	inj := faults.New(0xC4A5)
	inj.Arm(bgp.RunKey(0, cfgs[1]), faults.Stall)
	s1, ts1 := newTestServer(t, server.Config{
		CheckpointDir: ckptDir,
		JobWorkers:    1,
		RunWorkers:    1,
		Faults:        inj,
	})
	var ids [3]string
	for i, rs := range specs {
		st := submitJob(t, ts1.URL, server.JobSpec{Tenant: "crash", Runs: []server.RunSpec{rs}})
		ids[i] = st.ID
	}
	if st := waitDone(t, ts1.URL, ids[0]); st.State != server.StateDone {
		t.Fatalf("first job ended %s before the crash: %s", st.State, st.Error)
	}
	// Make sure the doomed job is journaled running before the crash, so
	// the replay exercises the running-job path.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts1.URL, ids[1]).State != server.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("second job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts1.Close()
	s1.Close()
	if _, err := os.Stat(filepath.Join(ckptDir, server.JournalFile)); err != nil {
		t.Fatalf("journal after the crash: %v", err)
	}

	// Second instance, same directory, no faults: replay alone — no
	// resubmission — must finish every job the first instance accepted.
	s2, ts2 := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	for i, id := range ids {
		st := waitDone(t, ts2.URL, id)
		if st.State != server.StateDone {
			t.Fatalf("recovered job %d (%s) ended %s: %s", i, id, st.State, st.Error)
		}
		if i == 1 && st.Recoveries != 1 {
			t.Errorf("interrupted job reports %d recoveries, want 1", st.Recoveries)
		}
		for node := range goldens[i] {
			if got := fetchDump(t, ts2.URL, id, 0, node); !bytes.Equal(got, goldens[i][node]) {
				t.Errorf("job %d node %d: recovered dump differs from the uninterrupted baseline", i, node)
			}
		}
	}
	snap := s2.Registry().Snapshot().Counters
	if got := snap[server.MetricJournalRecovered]; got != 2 {
		t.Errorf("server.journal.recovered = %d, want 2 (the running and the queued job)", got)
	}
	if snap[server.MetricJournalReplayed] == 0 {
		t.Error("server.journal.replayed = 0, want > 0")
	}
	if got := snap[server.MetricJournalRecoveryFailed]; got != 0 {
		t.Errorf("server.journal.recovery_failed = %d, want 0", got)
	}
	requireMemoReplayed(t, s2)
}

// TestCrashRecoveryCircuitBreaker hand-writes the journal a crash-looping
// daemon would leave — a job mid-run whose recovery budget is already
// spent — and requires the boot replay to fail it with a diagnostic
// instead of re-queuing it a fourth time. An explicit resubmission then
// starts a fresh lifecycle and completes.
func TestCrashRecoveryCircuitBreaker(t *testing.T) {
	ckptDir := t.TempDir()
	spec := server.JobSpec{Tenant: "loop", Runs: fastSpecs()[:1]}
	cfgs := []bgp.RunConfig{compileSpec(t, spec.Runs[0])}
	id := server.JobID(&spec, cfgs)
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	jnl, recs, err := journal.Open(filepath.Join(ckptDir, server.JournalFile))
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replays %d records", len(recs))
	}
	for _, rec := range []journal.Record{
		{Kind: journal.KindSubmit, Job: id, Tenant: spec.Tenant, Spec: raw, CreatedUnix: time.Now().Unix()},
		{Kind: journal.KindState, Job: id, State: server.StateRunning, Recoveries: 3},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatalf("seeding journal: %v", err)
		}
	}
	jnl.Close()

	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir, MaxRecoveries: 3})
	st := getStatus(t, ts.URL, id)
	if st.State != server.StateFailed {
		t.Fatalf("exhausted job replayed as %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "abandoned after 3 crash recoveries") {
		t.Errorf("breaker diagnostic %q does not name the budget", st.Error)
	}
	snap := s.Registry().Snapshot().Counters
	if got := snap[server.MetricJournalRecoveryFailed]; got != 1 {
		t.Errorf("server.journal.recovery_failed = %d, want 1", got)
	}

	// The breaker fails the replayed incarnation, not the spec: an
	// explicit resubmission re-queues under the same content address.
	if st := submitJob(t, ts.URL, spec); st.ID != id {
		t.Fatalf("resubmission created job %s, want %s", st.ID, id)
	}
	if st := waitDone(t, ts.URL, id); st.State != server.StateDone {
		t.Fatalf("resubmitted job ended %s: %s", st.State, st.Error)
	}
}

// TestCrashRecoveryDropsSpecsCheckRefuses hand-writes the log of a daemon
// whose decoder admitted runs bgp.Check refuses — eight ranks on one VNM
// node, a bcast rooted outside four ranks — each journaled as queued. The
// replay decodes them like any submission, so it drops both as
// unrecoverable instead of queuing runs that can only fail.
func TestCrashRecoveryDropsSpecsCheckRefuses(t *testing.T) {
	ckptDir := t.TempDir()
	root, err := bgp.ParseWorkloadSpec([]byte(rootProbe))
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := journal.Open(filepath.Join(ckptDir, server.JournalFile))
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	var ids []string
	for _, tc := range []struct {
		rs  server.RunSpec
		cfg bgp.RunConfig
	}{
		{server.RunSpec{Benchmark: "ep", Class: "S", Ranks: 8, Mode: "vnm", Nodes: 1},
			bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM, Nodes: 1}},
		{server.RunSpec{Spec: rootProbe, Class: "S", Ranks: 4, Mode: "vnm"},
			bgp.RunConfig{Spec: root, Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM}},
	} {
		spec := server.JobSpec{Tenant: "anonymous", Runs: []server.RunSpec{tc.rs}}
		id := server.JobID(&spec, []bgp.RunConfig{tc.cfg})
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(journal.Record{Kind: journal.KindSubmit, Job: id, Tenant: spec.Tenant, Spec: raw, CreatedUnix: time.Now().Unix()}); err != nil {
			t.Fatalf("seeding journal: %v", err)
		}
		ids = append(ids, id)
	}
	jnl.Close()

	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	if got := s.Registry().Snapshot().Counters[server.MetricJournalRecoveryFailed]; got != 2 {
		t.Errorf("server.journal.recovery_failed = %d, want 2", got)
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("dropped job %s answers %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestReplayDoesNotWaitOutOldLeases hand-writes the log an older daemon
// left when it died mid-job: its running record names an owner, and a lease
// record claims the job for another hour. The replay must ignore both and
// start the job at once: holding the directory's lock proves that owner
// dead.
func TestReplayDoesNotWaitOutOldLeases(t *testing.T) {
	ckptDir := t.TempDir()
	spec := server.JobSpec{Tenant: "lease", Runs: fastSpecs()[:1]}
	cfgs := []bgp.RunConfig{compileSpec(t, spec.Runs[0])}
	id := server.JobID(&spec, cfgs)
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, payload := range []string{
		fmt.Sprintf(`{"kind":"submit","job":%q,"tenant":"lease","spec":%s,"created_unix":%d}`, id, raw, time.Now().Unix()),
		fmt.Sprintf(`{"kind":"state","job":%q,"state":"running","owner":"bgpd-7-7"}`, id),
		fmt.Sprintf(`{"kind":"lease","job":%q,"owner":"bgpd-7-7","expiry_unix_nano":%d}`, id, time.Now().Add(time.Hour).UnixNano()),
	} {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE([]byte(payload)))
		log = append(append(log, hdr[:]...), payload...)
	}
	if err := os.WriteFile(filepath.Join(ckptDir, server.JournalFile), log, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	deadline := time.Now().Add(4 * time.Second)
	for getStatus(t, ts.URL, id).State == server.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("the replayed job is still queued after 4 s: the replay waited out the dead owner's lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := waitDone(t, ts.URL, id)
	if st.State != server.StateDone || st.Recoveries != 1 {
		t.Fatalf("replayed job ended %s with %d recoveries, want done with 1: %s", st.State, st.Recoveries, st.Error)
	}
}

// TestTornJournalTailRecovered simulates a crash mid-append — a frame
// header promising more payload than the disk received — and requires the
// next boot to truncate exactly the torn bytes (gauged in /metrics),
// recover the intact prefix, and finish the journaled job correctly.
func TestTornJournalTailRecovered(t *testing.T) {
	ckptDir := t.TempDir()
	spec := server.JobSpec{Tenant: "torn", Runs: fastSpecs()[:1]}
	cfgs := []bgp.RunConfig{compileSpec(t, spec.Runs[0])}
	golden := goldenDumps(t, cfgs[0])
	id := server.JobID(&spec, cfgs)
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ckptDir, server.JournalFile)
	jnl, _, err := journal.Open(path)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if err := jnl.Append(journal.Record{
		Kind: journal.KindSubmit, Job: id, Tenant: spec.Tenant,
		Spec: raw, CreatedUnix: time.Now().Unix(),
	}); err != nil {
		t.Fatalf("seeding journal: %v", err)
	}
	jnl.Close()

	// The torn tail: an 8-byte frame header claiming 64 payload bytes,
	// followed by only 4 — the write the crash interrupted.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn [8]byte
	binary.LittleEndian.PutUint32(torn[0:], 64)
	binary.LittleEndian.PutUint32(torn[4:], 0xDEADBEEF)
	f.Write(torn[:])
	f.Write([]byte("torn"))
	f.Close()

	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	if got := s.Registry().Snapshot().Gauges[server.MetricJournalTruncated]; got != 12 {
		t.Errorf("server.journal.truncated_bytes = %d, want 12 (8-byte header + 4 torn payload bytes)", got)
	}
	st := waitDone(t, ts.URL, id)
	if st.State != server.StateDone {
		t.Fatalf("job behind the torn tail ended %s: %s", st.State, st.Error)
	}
	for node := range golden {
		if got := fetchDump(t, ts.URL, id, 0, node); !bytes.Equal(got, golden[node]) {
			t.Errorf("node %d: dump differs from baseline after tail truncation", node)
		}
	}
	requireMemoReplayed(t, s)
}
