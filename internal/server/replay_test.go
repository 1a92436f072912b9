package server_test

// Replay of finished jobs: a terminal journal record is the whole job, so a
// boot registers a daemon's history without resolving any of it, and the
// history costs the live work nothing — not a queue slot, not a tenant
// slot, not a cache lookup, not a journal record.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/journal"
	"bgpsim/internal/server"
)

// TestReplayRegistersTerminalJobsFromRecords hand-writes the journal of a
// daemon that finished 1 000 jobs of one tenant and left one queued, over
// an empty store. After New the first /readyz must answer 200 and the
// tenant's next submission 202; every finished job must report the status
// its record carries; only the live run may reach the cache, as its one
// miss; and the compacted journal must hold exactly the records written
// for each finished job. The live run stalls on the one job worker, so
// the new submission stays queued and resolves nothing either.
func TestReplayRegistersTerminalJobsFromRecords(t *testing.T) {
	const finished = 1000
	ckptDir := t.TempDir()
	rs := fastSpecs()[0]
	cfgs := []bgp.RunConfig{compileSpec(t, rs)}
	created := time.Now().Unix()

	jnl, _, err := journal.Open(filepath.Join(ckptDir, server.JournalFile))
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	appendJob := func(spec server.JobSpec, states ...journal.Record) (string, []journal.Record) {
		t.Helper()
		id := server.JobID(&spec, []bgp.RunConfig{compileSpec(t, spec.Runs[0])})
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		recs := []journal.Record{{Kind: journal.KindSubmit, Job: id, Tenant: spec.Tenant, Spec: raw, CreatedUnix: created}}
		for _, st := range states {
			st.Kind, st.Job = journal.KindState, id
			recs = append(recs, st)
		}
		for _, rec := range recs {
			if err := jnl.Append(rec); err != nil {
				t.Fatalf("seeding journal: %v", err)
			}
		}
		return id, recs
	}
	written := make(map[string][]journal.Record, finished)
	want := make(map[string]server.JobStatus, finished)
	for i := 0; i < finished; i++ {
		// One tenant, one run: the run's L3 size makes each job its own
		// content address.
		hist := rs
		hist.L3Bytes = bgp.MinL3Bytes * (i + 1)
		spec := server.JobSpec{Tenant: "history", Runs: []server.RunSpec{hist}}
		id, recs := appendJob(spec, journal.Record{
			State: server.StateDone, Completed: 1, CacheHits: i % 2, Recoveries: i % 3,
		})
		written[id] = recs
		want[id] = server.JobStatus{
			ID: id, Tenant: spec.Tenant, State: server.StateDone, Runs: 1,
			Completed: 1, CacheHits: i % 2, Recoveries: i % 3, Created: created,
		}
	}
	appendJob(server.JobSpec{Tenant: "history", Runs: []server.RunSpec{rs}})
	jnl.Close()

	inj := faults.New(0x5EED)
	inj.Arm(bgp.RunKey(0, cfgs[0]), faults.Stall)
	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir, JobWorkers: 1, Faults: inj})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first /readyz after the replay answered %d, want 200", resp.StatusCode)
	}
	body, err := json.Marshal(server.JobSpec{Tenant: "history", Runs: fastSpecs()[1:2]})
	if err != nil {
		t.Fatal(err)
	}
	code, data := submitRaw(t, ts.URL, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("the tenant's next submission answered %d, want 202: %s", code, data)
	}
	var next server.JobStatus
	if err := json.Unmarshal(data, &next); err != nil {
		t.Fatal(err)
	}

	for id, st := range want {
		if got := getStatus(t, ts.URL, id); got != st {
			t.Fatalf("replayed job's status differs from its record:\n got %+v\nwant %+v", got, st)
		}
	}

	reg := s.Registry()
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counters[server.MetricCacheMiss] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the live job never reached the cache")
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := reg.Snapshot().Counters
	for name, n := range map[string]uint64{
		server.MetricCacheHit:         0,
		server.MetricCacheHitStore:    0,
		server.MetricCacheMiss:        1,
		server.MetricJobsDone:         0,
		server.MetricJournalRecovered: 1,
	} {
		if snap[name] != n {
			t.Errorf("%s = %d, want %d", name, snap[name], n)
		}
	}
	if st := getStatus(t, ts.URL, next.ID); st.State != server.StateQueued {
		t.Errorf("the new submission is %s behind the stalled live job, want queued", st.State)
	}

	log, err := os.ReadFile(filepath.Join(ckptDir, server.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.DecodeBytes(log)
	got := make(map[string][]journal.Record, finished)
	for _, rec := range recs {
		if _, ok := written[rec.Job]; ok {
			got[rec.Job] = append(got[rec.Job], rec)
		}
	}
	for id := range written {
		if !reflect.DeepEqual(got[id], written[id]) {
			t.Fatalf("journal records of finished job %s changed across the boot:\n got %+v\nwant %+v", id, got[id], written[id])
		}
	}
}

// TestReplayOfRecordsWithoutCounts replays a log in the format written
// before terminal records carried counts: a done three-run job and a failed
// one, each with its running record. The done job must come back done with
// every run completed and no cache hits, the failed one failed with every
// run uncompleted, and neither may resolve a run at boot. A fetch from the
// done job, whose entries the empty store lacks, then repairs the run and
// serves the uninterrupted bytes.
func TestReplayOfRecordsWithoutCounts(t *testing.T) {
	ckptDir := t.TempDir()
	specs := fastSpecs()
	cfgs := make([]bgp.RunConfig, len(specs))
	for i, rs := range specs {
		cfgs[i] = compileSpec(t, rs)
	}
	golden := goldenDumps(t, cfgs[0])
	created := time.Now().Unix()
	var payloads []string
	ids := map[string]string{}
	for _, tc := range []struct{ tenant, final string }{
		{"legacy-done", `"state":"done"`},
		{"legacy-failed", `"state":"failed","error":"run 1: boom","recoveries":1`},
	} {
		spec := server.JobSpec{Tenant: tc.tenant, Runs: specs}
		id := server.JobID(&spec, cfgs)
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[tc.tenant] = id
		payloads = append(payloads,
			fmt.Sprintf(`{"kind":"submit","job":%q,"tenant":%q,"spec":%s,"created_unix":%d}`, id, tc.tenant, raw, created),
			fmt.Sprintf(`{"kind":"state","job":%q,"state":"running"}`, id),
			fmt.Sprintf(`{"kind":"state","job":%q,%s}`, id, tc.final))
	}
	writeRawJournal(t, ckptDir, payloads...)

	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	for tenant, want := range map[string]server.JobStatus{
		"legacy-done": {State: server.StateDone, Completed: len(specs)},
		"legacy-failed": {State: server.StateFailed, Failed: len(specs),
			Recoveries: 1, Error: "run 1: boom"},
	} {
		want.ID, want.Tenant, want.Runs, want.Created = ids[tenant], tenant, len(specs), created
		if got := getStatus(t, ts.URL, ids[tenant]); got != want {
			t.Errorf("%s replayed as\n %+v\nwant %+v", tenant, got, want)
		}
	}
	snap := s.Registry().Snapshot().Counters
	if snap[server.MetricCacheHit] != 0 || snap[server.MetricCacheMiss] != 0 {
		t.Errorf("the replay resolved runs: server.cache.hit = %d, server.cache.miss = %d, want 0 and 0",
			snap[server.MetricCacheHit], snap[server.MetricCacheMiss])
	}

	for node := range golden {
		if got := fetchDump(t, ts.URL, ids["legacy-done"], 0, node); !bytes.Equal(got, golden[node]) {
			t.Errorf("node %d: repaired dump differs from the uninterrupted baseline", node)
		}
	}
	if got := s.Registry().Snapshot().Counters[server.MetricResultRepaired]; got == 0 {
		t.Error("server.result.repaired = 0: the lost entry was not re-resolved on fetch")
	}
}

// TestReplayDropsJobsWithRetryFields replays a log written before jobs lost
// their retry and deadline fields: one job submitted with "retries":1 and
// one without. The first no longer decodes, so the replay drops it, counts
// it in server.journal.recovery_failed and its id answers 404; the second
// comes back under the id it was journaled with, which JobID still derives.
func TestReplayDropsJobsWithRetryFields(t *testing.T) {
	ckptDir := t.TempDir()
	const (
		run        = `{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","opts":"-O5 -qarch=440d"}`
		withRetry  = "job-4f639b6c83830ab0" // {"tenant":"legacy","runs":[run],"retries":1}
		plain      = "job-57074031f5b2e917" // {"tenant":"legacy","runs":[run]}
		finalState = `"state":"done","completed":1`
	)
	created := time.Now().Unix()
	writeRawJournal(t, ckptDir,
		fmt.Sprintf(`{"kind":"submit","job":%q,"tenant":"legacy","spec":{"tenant":"legacy","runs":[%s],"retries":1},"created_unix":%d}`, withRetry, run, created),
		fmt.Sprintf(`{"kind":"state","job":%q,%s}`, withRetry, finalState),
		fmt.Sprintf(`{"kind":"submit","job":%q,"tenant":"legacy","spec":{"tenant":"legacy","runs":[%s]},"created_unix":%d}`, plain, run, created),
		fmt.Sprintf(`{"kind":"state","job":%q,%s}`, plain, finalState))

	s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	if n := s.Registry().Snapshot().Counters[server.MetricJournalRecoveryFailed]; n != 1 {
		t.Errorf("%s = %d, want 1 (the job with retries)", server.MetricJournalRecoveryFailed, n)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + withRetry)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of the dropped job = %d, want 404", resp.StatusCode)
	}
	want := server.JobStatus{ID: plain, Tenant: "legacy", State: server.StateDone, Runs: 1, Completed: 1, Created: created}
	if got := getStatus(t, ts.URL, plain); got != want {
		t.Errorf("job without retry fields replayed as\n %+v\nwant %+v", got, want)
	}
}
