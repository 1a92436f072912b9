package server_test

// End-to-end API suite: submit → poll → fetch against a real Server behind
// httptest, asserting the served dump bytes are byte-identical to what
// bgp.Run produces for the same configuration — the service is a cache in
// front of the simulator, never a different answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/server"
)

// fastSpecs returns the wire form and lowered form of the suite's fast
// Class-S points (one benchmark per operating mode, as the determinism
// harness uses).
func fastSpecs() []server.RunSpec {
	return []server.RunSpec{
		{Benchmark: "ep", Class: "S", Ranks: 4, Mode: "vnm", Opts: "-O5 -qarch=440d"},
		{Benchmark: "mg", Class: "S", Ranks: 4, Mode: "smp1", Opts: "-O5 -qarch=440d"},
		{Benchmark: "ft", Class: "S", Ranks: 2, Mode: "smp4", Opts: "-O3"},
	}
}

// compileSpec lowers one RunSpec, failing the test on error.
func compileSpec(t *testing.T, rs server.RunSpec) bgp.RunConfig {
	t.Helper()
	cfg, err := rs.Compile()
	if err != nil {
		t.Fatalf("compiling spec %+v: %v", rs, err)
	}
	return cfg
}

// goldenDumps returns each node's encoded dump bytes for cfg — the
// reference the API must serve verbatim. The reference is the slow path
// (epoch memo off); two memo-on runs follow and must reproduce it byte for
// byte. They also walk the process-wide memo through its admission policy —
// a first run that only leaves cfg's mark, then the recording run — so a
// daemon simulating cfg afterwards is the replaying leg of the exactness
// comparison (requireMemoReplayed checks that it was).
func goldenDumps(t *testing.T, cfg bgp.RunConfig) [][]byte {
	t.Helper()
	encode := func(cfg bgp.RunConfig) [][]byte {
		res, err := bgp.Run(cfg)
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		blobs := make([][]byte, len(res.Dumps))
		for i, d := range res.Dumps {
			var buf bytes.Buffer
			if err := d.Encode(&buf); err != nil {
				t.Fatalf("encoding golden dump: %v", err)
			}
			blobs[i] = buf.Bytes()
		}
		return blobs
	}
	slow := cfg
	slow.NoEpochMemo = true
	golden := encode(slow)
	for _, leg := range []string{"first-sight", "recording"} {
		got := encode(cfg)
		for node := range golden {
			if !bytes.Equal(got[node], golden[node]) {
				t.Fatalf("%s run of %s: node %d dump differs from the memo-less run", leg, cfg.Benchmark, node)
			}
		}
	}
	return golden
}

// requireMemoReplayed asserts, from the instance's own registry, that the
// runs s simulated replayed memoized epochs: the dump comparisons around
// it are meant to cover restored machine state, not a second recording.
func requireMemoReplayed(t *testing.T, s *server.Server) {
	t.Helper()
	if hits := s.Registry().Snapshot().Counters["sim.epochmemo.hits"]; hits == 0 {
		t.Error("sim.epochmemo.hits = 0: the daemon's simulations never replayed an epoch")
	}
}

// newTestServer boots a Server and an httptest front end, both torn down
// with the test.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// submitRaw POSTs a raw body and returns the response status and bytes.
func submitRaw(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

// submitJob POSTs a JobSpec and returns the decoded status, asserting the
// submission was accepted (202 new, 200 deduplicated).
func submitJob(t *testing.T, base string, spec server.JobSpec) server.JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, data := submitRaw(t, base, string(body))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit returned %d: %s", code, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding submit response %q: %v", data, err)
	}
	return st
}

// getStatus polls one job's status endpoint.
func getStatus(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status returned %d: %s", resp.StatusCode, data)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitDone polls until the job reaches a terminal state.
func waitDone(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, base, id)
		if st.State == server.StateDone || st.State == server.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchDump GETs one raw counter dump of a completed job.
func fetchDump(t *testing.T, base, id string, run, node int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?run=%d&node=%d", base, id, run, node))
	if err != nil {
		t.Fatalf("GET dump: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump returned %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("dump content type %q", ct)
	}
	return data
}

// TestSubmitPollFetchSingleRun drives the whole lifecycle for one run and
// asserts the served dump is byte-identical to bgp.Run's.
func TestSubmitPollFetchSingleRun(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	rs := fastSpecs()[0]
	golden := goldenDumps(t, compileSpec(t, rs))

	st := submitJob(t, ts.URL, server.JobSpec{Tenant: "alice", Runs: []server.RunSpec{rs}})
	if st.State == server.StateFailed {
		t.Fatalf("job failed at submit: %+v", st)
	}
	if st.Runs != 1 {
		t.Fatalf("job has %d runs, want 1", st.Runs)
	}
	st = waitDone(t, ts.URL, st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("job counters %+v", st)
	}
	for node := range golden {
		got := fetchDump(t, ts.URL, st.ID, 0, node)
		if !bytes.Equal(got, golden[node]) {
			t.Errorf("node %d dump differs from bgp.Run's (%d vs %d bytes)", node, len(got), len(golden[node]))
		}
	}
}

// TestSubmitPollFetchSweep submits a small sweep, asserts every run's
// dumps match the direct simulation, and checks the CSV result body.
func TestSubmitPollFetchSweep(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	specs := fastSpecs()
	goldens := make([][][]byte, len(specs))
	for i, rs := range specs {
		goldens[i] = goldenDumps(t, compileSpec(t, rs))
	}

	st := submitJob(t, ts.URL, server.JobSpec{Tenant: "bob", Runs: specs})
	st = waitDone(t, ts.URL, st.ID)
	if st.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != len(specs) {
		t.Fatalf("sweep completed %d of %d runs", st.Completed, len(specs))
	}
	for run, golden := range goldens {
		for node := range golden {
			got := fetchDump(t, ts.URL, st.ID, run, node)
			if !bytes.Equal(got, golden[node]) {
				t.Errorf("run %d node %d dump differs from bgp.Run's", run, node)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csv, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result returned %d: %s", resp.StatusCode, csv)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != len(specs)+1 {
		t.Fatalf("result CSV has %d lines, want header + %d rows:\n%s", len(lines), len(specs), csv)
	}
	if !strings.HasPrefix(lines[0], "run,label,ranks,nodes,exec_cycles") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, fmt.Sprintf("%d,%s.", i, specs[i].Benchmark)) {
			t.Errorf("row %d = %q, want benchmark %s", i, line, specs[i].Benchmark)
		}
	}
}

// TestResubmitIdenticalSpecIsPureCacheHit re-submits a completed job's
// exact spec and asserts nothing re-simulates: the second submission
// dedupes onto the same job id, and a third submission by another tenant
// (a distinct job) is served wholly from the checkpoint store.
func TestResubmitIdenticalSpecIsPureCacheHit(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	spec := server.JobSpec{Tenant: "alice", Runs: fastSpecs()[:2]}

	first := submitJob(t, ts.URL, spec)
	first = waitDone(t, ts.URL, first.ID)
	if first.State != server.StateDone {
		t.Fatalf("first job ended %s: %s", first.State, first.Error)
	}
	missAfterFirst := s.Registry().Snapshot().Counters[server.MetricCacheMiss]
	if missAfterFirst != uint64(len(spec.Runs)) {
		t.Fatalf("first job executed %d simulations, want %d", missAfterFirst, len(spec.Runs))
	}

	// Same tenant, same spec: the same content-addressed job.
	again := submitJob(t, ts.URL, spec)
	if again.ID != first.ID {
		t.Fatalf("identical resubmission got job %s, want %s", again.ID, first.ID)
	}

	// Another tenant, same runs: a new job, served from the store.
	other := submitJob(t, ts.URL, server.JobSpec{Tenant: "carol", Runs: spec.Runs})
	if other.ID == first.ID {
		t.Fatal("distinct tenants share a job id")
	}
	other = waitDone(t, ts.URL, other.ID)
	if other.State != server.StateDone {
		t.Fatalf("second tenant's job ended %s: %s", other.State, other.Error)
	}
	snap := s.Registry().Snapshot().Counters
	if snap[server.MetricCacheMiss] != missAfterFirst {
		t.Errorf("resubmission re-simulated: miss %d -> %d", missAfterFirst, snap[server.MetricCacheMiss])
	}
	if hits := snap[server.MetricCacheHitStore]; hits < uint64(len(spec.Runs)) {
		t.Errorf("store hits = %d, want >= %d", hits, len(spec.Runs))
	}
	if other.CacheHits != len(spec.Runs) {
		t.Errorf("job status reports %d cache hits, want %d", other.CacheHits, len(spec.Runs))
	}

	// And the served bytes are still the simulator's.
	for run, rs := range spec.Runs {
		golden := goldenDumps(t, compileSpec(t, rs))
		for node := range golden {
			if got := fetchDump(t, ts.URL, other.ID, run, node); !bytes.Equal(got, golden[node]) {
				t.Errorf("run %d node %d cached dump differs from bgp.Run's", run, node)
			}
		}
	}
}

// TestMetricsEndpoint spot-checks that the server publishes its cache and
// admission counters through /metrics alongside the simulation metrics.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	st := submitJob(t, ts.URL, server.JobSpec{Runs: fastSpecs()[:1]})
	waitDone(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	for _, name := range []string{server.MetricJobsSubmitted, server.MetricJobsDone, server.MetricCacheMiss, "sim.runs"} {
		if snap.Counters[name] == 0 {
			t.Errorf("metric %s = 0 after a completed job", name)
		}
	}
	// The execution-accelerator counters are registered on the daemon's
	// recorder, so they surface here alongside the server.cache.* family.
	for _, name := range []string{
		"sim.epochmemo.hits", "sim.epochmemo.misses", "sim.epochmemo.first_sight",
		"sim.epochmemo.stores", "sim.epochmemo.corrupt",
		"sim.epochmemo.flattens", "sim.epochmemo.materializations",
		"sim.progcache.hit", "sim.progcache.miss",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	// The memo's occupancy is refreshed at every scrape; after a run the
	// process-wide cache holds at least that run's mark.
	if snap.Gauges["sim.epochmemo.entries"] == 0 || snap.Gauges["sim.epochmemo.resident_bytes"] == 0 {
		t.Errorf("epoch memo gauges after a completed run: %v", snap.Gauges)
	}
	if snap.Counters["sim.progcache.hit"]+snap.Counters["sim.progcache.miss"] == 0 {
		t.Error("sim.progcache recorded neither a hit nor a miss after a completed run")
	}
}

// TestPanickingRunFailsItsJobOnce pins the one-attempt contract on the
// daemon: a run that panics fails its job with the panic's message after
// exactly one attempt, and the run slot it held is released — a second job
// on another configuration then completes on the same one-slot server.
func TestPanickingRunFailsItsJobOnce(t *testing.T) {
	specs := fastSpecs()
	inj := faults.New(0xBAD)
	inj.Arm(bgp.RunKey(0, compileSpec(t, specs[0])), faults.Panic)
	_, ts := newTestServer(t, server.Config{RunWorkers: 1, JobWorkers: 1, Faults: inj})

	st := waitDone(t, ts.URL, submitJob(t, ts.URL, server.JobSpec{Tenant: "p", Runs: specs[:1]}).ID)
	if st.State != server.StateFailed || !strings.Contains(st.Error, "injected panic") {
		t.Fatalf("panicking job ended %s with error %q, want failed with the panic", st.State, st.Error)
	}
	if lg := inj.Log(); len(lg) != 1 {
		t.Errorf("injector fired %d times, want 1 (one attempt per run): %+v", len(lg), lg)
	}

	if st := waitDone(t, ts.URL, submitJob(t, ts.URL, server.JobSpec{Tenant: "p", Runs: specs[1:2]}).ID); st.State != server.StateDone {
		t.Errorf("job after the panic ended %s (%s), want done: the run slot was not released", st.State, st.Error)
	}
}

// TestRefusedResubmissionKeepsFailedJob pins that resubmitting a failed job
// replaces it only when the resubmission is admitted: one the tenant limit
// refuses with a 429 leaves the failed job answering its status.
func TestRefusedResubmissionKeepsFailedJob(t *testing.T) {
	specs := fastSpecs()
	inj := faults.New(0xFA11)
	inj.Arm(bgp.RunKey(0, compileSpec(t, specs[0])), faults.Panic)
	inj.Arm(bgp.RunKey(0, compileSpec(t, specs[1])), faults.Stall)
	_, ts := newTestServer(t, server.Config{RunWorkers: 1, JobWorkers: 1, TenantJobs: 1, Faults: inj})

	failedSpec := server.JobSpec{Tenant: "r", Runs: specs[:1]}
	failed := waitDone(t, ts.URL, submitJob(t, ts.URL, failedSpec).ID)
	if failed.State != server.StateFailed {
		t.Fatalf("panicking job ended %s, want failed", failed.State)
	}
	// A stalled job holds the tenant's one slot.
	waitState(t, ts.URL, submitJob(t, ts.URL, server.JobSpec{Tenant: "r", Runs: specs[1:2]}).ID, server.StateRunning)

	body, _ := specBody(t, failedSpec)
	if code, data := submitRaw(t, ts.URL, body); code != http.StatusTooManyRequests {
		t.Fatalf("resubmission over the tenant limit = %d, want 429 (body %s)", code, data)
	}
	if st := getStatus(t, ts.URL, failed.ID); st.State != server.StateFailed {
		t.Errorf("failed job after a refused resubmission is %s, want failed", st.State)
	}
}
