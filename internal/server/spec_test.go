package server_test

// Hostile-input surface of the API: malformed specs, bad identifiers and
// over-limit submissions must map onto the right 4xx and never panic. The
// fuzz target hardens the JSON decoder the same way FuzzDecodeDump hardens
// the counter-file decoder.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/server"
)

// TestSubmitRejectsMalformedSpecs drives every validation failure through
// the HTTP surface and asserts the status code.
func TestSubmitRejectsMalformedSpecs(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	valid := `{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`
	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"truncated object", `{"runs": [`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1, "runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"trailing garbage", valid + `{"again": true}`, http.StatusBadRequest},
		{"no runs", `{"tenant":"x","runs":[]}`, http.StatusBadRequest},
		{"runs not a list", `{"runs": 7}`, http.StatusBadRequest},
		{"unknown benchmark", `{"runs":[{"benchmark":"linpack","class":"S","ranks":4,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"bad class", `{"runs":[{"benchmark":"ep","class":"Z","ranks":4,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"negative ranks", `{"runs":[{"benchmark":"ep","class":"S","ranks":-4,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"zero ranks", `{"runs":[{"benchmark":"ep","class":"S","ranks":0,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"huge ranks", `{"runs":[{"benchmark":"ep","class":"S","ranks":1000000,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"bad mode", `{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"hexa"}]}`, http.StatusBadRequest},
		{"bad opts", `{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","opts":"-O9"}]}`, http.StatusBadRequest},
		{"negative nodes", `{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","nodes":-1}]}`, http.StatusBadRequest},
		{"retries", `{"retries":1,"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`, http.StatusBadRequest},
		{"run_timeout_ms", `{"run_timeout_ms":100,"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`, http.StatusBadRequest},
	}
	// Each run gets one attempt: the retry and deadline fields older
	// daemons accepted are unknown fields, refused by name.
	removed := map[string]bool{"retries": true, "run_timeout_ms": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := submitRaw(t, ts.URL, tc.body)
			if code != tc.code {
				t.Errorf("got %d, want %d (body %s)", code, tc.code, body)
			}
			if code >= 400 && !strings.Contains(string(body), "error") {
				t.Errorf("error response has no error field: %s", body)
			}
			if removed[tc.name] && !strings.Contains(string(body), tc.name) {
				t.Errorf("refusal does not name the field %s: %s", tc.name, body)
			}
		})
	}

	// The runs-per-job bound.
	var many strings.Builder
	many.WriteString(`{"runs":[`)
	for i := 0; i <= server.MaxRunsPerJob; i++ {
		if i > 0 {
			many.WriteString(",")
		}
		many.WriteString(`{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}`)
	}
	many.WriteString(`]}`)
	if code, _ := submitRaw(t, ts.URL, many.String()); code != http.StatusBadRequest {
		t.Errorf("over-long run list got %d, want 400", code)
	}
}

// TestJobIDPinned pins the content address of two submissions to the ids
// daemons have always given them. Journal replay re-derives every job's id
// from its spec and drops a job whose spec hashes elsewhere, so a change to
// JobID's input would orphan every journaled job.
func TestJobIDPinned(t *testing.T) {
	for body, want := range map[string]string{
		`{"tenant":"alice","runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","opts":"-O5 -qarch=440d"}]}`: "job-455cf612cba8950a",
		`{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","opts":"-O5 -qarch=440d"},` +
			`{"benchmark":"mg","class":"S","ranks":4,"mode":"smp1"}]}`: "job-64536fc08ad9e81a",
	} {
		spec, cfgs, err := server.DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := server.JobID(spec, cfgs); got != want {
			t.Errorf("JobID(%s) = %s, want %s", body, got, want)
		}
	}
}

// TestSubmitRejectsSubLineL3: an l3_bytes below one line per bank used to
// pass the decoder and panic inside the simulation — a failed job with a
// stack trace for a message — and an l3_bytes or prefetch depth without an
// upper bound reached an allocation of that size: one POST with
// l2_prefetch_depth 1<<40 ended the daemon with an out-of-memory throw, and
// the journal re-queued the job on every restart. Each is a 400 naming the
// field's path; each per-node bound itself is accepted and runs to
// completion. One POST could still book a partition's worth of L3 — 1024
// nodes at 64 MB — so the partition's product is bounded too, counting its
// nodes as given or from the ranks: one step over the bound is a 400, and a
// partition at it decodes (it is not run: it books gigabytes of host memory).
func TestSubmitRejectsSubLineL3(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const job = `{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"},` +
		`{"benchmark":"ep","class":"S",%s,"%s":%d}]}`
	const small = `"ranks":4,"mode":"vnm"`
	const (
		refused = iota
		runs
		decodes // accepted by the decoder, not run
	)
	for _, tc := range []struct {
		run   string
		field string
		value int
		want  int
	}{
		{small, "l3_bytes", 1, refused},
		{small, "l3_bytes", 100, refused},
		{small, "l3_bytes", 255, refused},
		{small, "l3_bytes", bgp.MinL3Bytes, runs},
		{small, "l3_bytes", bgp.MaxL3Bytes, runs},
		{small, "l3_bytes", bgp.MaxL3Bytes + 1, refused},
		{small, "l2_prefetch_depth", bgp.MaxPrefetchDepth, runs},
		{small, "l2_prefetch_depth", bgp.MaxPrefetchDepth + 1, refused},
		{small, "l2_prefetch_depth", 1 << 40, refused},
		{small, "l3_prefetch_depth", bgp.MaxPrefetchDepth, runs},
		{small, "l3_prefetch_depth", bgp.MaxPrefetchDepth + 1, refused},
		{small, "l3_prefetch_depth", 1 << 40, refused},
		{small + `,"nodes":128`, "l3_bytes", bgp.MaxL3Bytes, decodes},
		{small + `,"nodes":129`, "l3_bytes", bgp.MaxL3Bytes, refused},
		{`"ranks":1024,"mode":"smp1"`, "l3_bytes", 8 << 20, decodes},
		{`"ranks":1024,"mode":"smp1"`, "l3_bytes", 8<<20 + 1, refused},
		{`"ranks":1021,"mode":"vnm"`, "l3_bytes", 32 << 20, decodes},
		{`"ranks":1021,"mode":"vnm"`, "l3_bytes", 32<<20 + 1, refused},
	} {
		spec := fmt.Sprintf(job, tc.run, tc.field, tc.value)
		if tc.want == decodes {
			if _, _, err := server.DecodeJobSpec(strings.NewReader(spec)); err != nil {
				t.Errorf("%s %s %d: %v, want the bound to decode", tc.run, tc.field, tc.value, err)
			}
			continue
		}
		code, body := submitRaw(t, ts.URL, spec)
		if tc.want == refused {
			if code != http.StatusBadRequest || !strings.Contains(string(body), "runs[1]."+tc.field) {
				t.Errorf("%s %s %d: got %d %s, want 400 naming runs[1].%s", tc.run, tc.field, tc.value, code, body, tc.field)
			}
			continue
		}
		if code != http.StatusAccepted {
			t.Fatalf("%s %d: got %d %s, want 202", tc.field, tc.value, code, body)
		}
		var st server.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, ts.URL, st.ID); st.State != server.StateDone {
			t.Errorf("%s %d: job ended %s: %+v", tc.field, tc.value, st.State, st)
		}
	}
}

// rootProbe is a workload whose bcast roots at rank 7: it decodes on its
// own, and only a run of more than seven ranks can host it.
const rootProbe = `version: 1
name: rootprobe
arrays:
  - {name: a, bytes: 4096}
phases:
  - name: a
    compute:
      trips: 16
      refs:
        - {array: a}
  - name: b
    comm: {op: bcast, root: 7, bytes: 64}
`

// TestDecodeAgreesWithCheck holds bgpd's admission to the simulator's:
// within the service caps, DecodeJobSpec refuses a run exactly when
// bgp.Check refuses its configuration, and every refusal names the wire
// field as runs[0].<field>: — over the API too. The rows marked "parent"
// were decided otherwise when the decoder kept its own copy of the bounds:
// it counted sp's nodes from the 520 requested ranks instead of the 484 it
// runs, and it accepted a root or a partition the run then failed on.
func TestDecodeAgreesWithCheck(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	ep := func(edit func(*server.RunSpec)) server.RunSpec {
		rs := server.RunSpec{Benchmark: "ep", Class: "S", Ranks: 4, Mode: "vnm"}
		edit(&rs)
		return rs
	}
	for _, tc := range []struct {
		name  string
		rs    server.RunSpec
		field string // the refused wire field; empty = accepted
	}{
		// parent: refused, counting 130 nodes.
		{"sp 520 ranks at 64 MB", server.RunSpec{Benchmark: "sp", Class: "S", Ranks: 520, Mode: "vnm", L3Bytes: 64 << 20}, ""},
		// parent: accepted, then failed in Run.
		{"root 7 at 4 ranks", server.RunSpec{Spec: rootProbe, Class: "S", Ranks: 4, Mode: "vnm"}, "workload"},
		{"root 7 at 8 ranks", server.RunSpec{Spec: rootProbe, Class: "S", Ranks: 8, Mode: "vnm"}, ""},
		// parent: accepted, then failed in Run.
		{"8 ranks on 1 VNM node", ep(func(rs *server.RunSpec) { rs.Ranks, rs.Nodes = 8, 1 }), "nodes"},
		{"8 ranks on 2 VNM nodes", ep(func(rs *server.RunSpec) { rs.Ranks, rs.Nodes = 8, 2 }), ""},
		{"ranks 0", ep(func(rs *server.RunSpec) { rs.Ranks = 0 }), "ranks"},
		{"nodes -1", ep(func(rs *server.RunSpec) { rs.Nodes = -1 }), "nodes"},
		{"linpack", ep(func(rs *server.RunSpec) { rs.Benchmark = "linpack" }), "benchmark"},
		{"benchmark and workload", ep(func(rs *server.RunSpec) { rs.Spec = rootProbe; rs.Ranks = 8 }), "benchmark"},
		{"l3_bytes at the minimum", ep(func(rs *server.RunSpec) { rs.L3Bytes = bgp.MinL3Bytes }), ""},
		{"l3_bytes under the minimum", ep(func(rs *server.RunSpec) { rs.L3Bytes = bgp.MinL3Bytes - 1 }), "l3_bytes"},
		{"l3_bytes at the maximum", ep(func(rs *server.RunSpec) { rs.L3Bytes = bgp.MaxL3Bytes }), ""},
		{"l3_bytes over the maximum", ep(func(rs *server.RunSpec) { rs.L3Bytes = bgp.MaxL3Bytes + 1 }), "l3_bytes"},
		{"l2_prefetch_depth at the maximum", ep(func(rs *server.RunSpec) { rs.L2PrefetchDepth = bgp.MaxPrefetchDepth }), ""},
		{"l2_prefetch_depth over the maximum", ep(func(rs *server.RunSpec) { rs.L2PrefetchDepth = bgp.MaxPrefetchDepth + 1 }), "l2_prefetch_depth"},
		{"l3_prefetch_depth at the maximum", ep(func(rs *server.RunSpec) { rs.L3PrefetchDepth = bgp.MaxPrefetchDepth }), ""},
		{"l3_prefetch_depth over the maximum", ep(func(rs *server.RunSpec) { rs.L3PrefetchDepth = bgp.MaxPrefetchDepth + 1 }), "l3_prefetch_depth"},
		{"partition L3 at the maximum", ep(func(rs *server.RunSpec) { rs.Nodes, rs.L3Bytes = 128, bgp.MaxL3Bytes }), ""},
		{"partition L3 over the maximum", ep(func(rs *server.RunSpec) { rs.Nodes, rs.L3Bytes = 129, bgp.MaxL3Bytes }), "l3_bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lower(t, tc.rs)
			cerr := bgp.Check(cfg)
			body, err := json.Marshal(server.JobSpec{Runs: []server.RunSpec{tc.rs}})
			if err != nil {
				t.Fatal(err)
			}
			_, cfgs, derr := server.DecodeJobSpec(bytes.NewReader(body))
			if (derr == nil) != (cerr == nil) {
				t.Fatalf("decode says %v, Check says %v", derr, cerr)
			}
			if tc.field == "" {
				if derr != nil {
					t.Fatalf("refused: %v", derr)
				}
				if bgp.RunKey(0, cfgs[0]) != bgp.RunKey(0, cfg) {
					t.Fatalf("decoded %+v, want %+v", cfgs[0], cfg)
				}
				return
			}
			path := "runs[0]." + tc.field + ": "
			if derr == nil || !strings.Contains(derr.Error(), path) {
				t.Fatalf("decode error %v, want one naming %s", derr, path)
			}
			code, data := submitRaw(t, ts.URL, string(body))
			if code != http.StatusBadRequest || !strings.Contains(string(data), path) {
				t.Fatalf("POST got %d %s, want 400 naming %s", code, data, path)
			}
		})
	}
}

// lower spells rs as the RunConfig a Go caller would write, independently of
// RunSpec.Compile.
func lower(t *testing.T, rs server.RunSpec) bgp.RunConfig {
	t.Helper()
	class, err := bgp.ParseClass(rs.Class)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := bgp.ParseMode(rs.Mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgp.RunConfig{
		Benchmark: rs.Benchmark, Class: class, Ranks: rs.Ranks, Mode: mode, Nodes: rs.Nodes,
		L3Bytes: rs.L3Bytes, L2PrefetchDepth: rs.L2PrefetchDepth, L3PrefetchDepth: rs.L3PrefetchDepth,
	}
	if rs.Spec != "" {
		if cfg.Spec, err = bgp.ParseWorkloadSpec([]byte(rs.Spec)); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// TestUnknownJobAndBadIndices covers the identifier errors: unknown job
// ids are 404, result fetches before completion are 409, and out-of-range
// run/node indices are 4xx, never panics.
func TestUnknownJobAndBadIndices(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	for _, path := range []string{"/v1/jobs/job-nonesuch", "/v1/jobs/job-nonesuch/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	st := submitJob(t, ts.URL, server.JobSpec{Runs: fastSpecs()[:1]})
	st = waitDone(t, ts.URL, st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job ended %s", st.State)
	}
	cases := []struct {
		query string
		code  int
	}{
		{"?run=xyz", http.StatusBadRequest},
		{"?run=0&node=xyz", http.StatusBadRequest},
		{"?run=5", http.StatusNotFound},
		{"?run=-1", http.StatusNotFound},
		{"?run=0&node=99", http.StatusNotFound},
		{"?run=0&node=-1", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("result%s = %d, want %d", tc.query, resp.StatusCode, tc.code)
		}
	}
}

// TestAdmissionLimits pins the 429 paths: a tenant at its concurrency
// limit, then a full job queue; and 409 for a result fetched before the
// job is done. A stalled fault keeps the first job running for the whole
// test, deterministically.
func TestAdmissionLimits(t *testing.T) {
	stallSpec := fastSpecs()[0]
	stallCfg := compileSpec(t, stallSpec)
	inj := faults.New(0xFEED)
	// Stall the run so the job occupies its worker until Close.
	inj.Arm(bgp.RunKey(0, stallCfg), faults.Stall)
	_, ts := newTestServer(t, server.Config{
		JobWorkers: 1,
		RunWorkers: 1,
		QueueDepth: 1,
		TenantJobs: 1,
		Faults:     inj,
	})

	// Job A stalls inside the single worker.
	stalled := submitJob(t, ts.URL, server.JobSpec{Tenant: "quota", Runs: []server.RunSpec{stallSpec}})
	waitState(t, ts.URL, stalled.ID, server.StateRunning)

	// Its result is not ready: 409.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + stalled.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of a running job = %d, want 409", resp.StatusCode)
	}

	// Same tenant, different spec: the tenant is at its limit — 429.
	overQuota, _ := specBody(t, server.JobSpec{Tenant: "quota", Runs: fastSpecs()[1:2]})
	if code, body := submitRaw(t, ts.URL, overQuota); code != http.StatusTooManyRequests {
		t.Errorf("over-quota submission = %d, want 429 (body %s)", code, body)
	}

	// Other tenants: one fills the queue slot, the next overflows — 429.
	fills, _ := specBody(t, server.JobSpec{Tenant: "other-1", Runs: fastSpecs()[1:2]})
	if code, body := submitRaw(t, ts.URL, fills); code != http.StatusAccepted {
		t.Fatalf("queue-filling submission = %d (body %s)", code, body)
	}
	overflow, _ := specBody(t, server.JobSpec{Tenant: "other-2", Runs: fastSpecs()[2:3]})
	if code, body := submitRaw(t, ts.URL, overflow); code != http.StatusTooManyRequests {
		t.Errorf("queue-overflow submission = %d, want 429 (body %s)", code, body)
	}
}

// specBody marshals a JobSpec for submitRaw.
func specBody(t *testing.T, spec server.JobSpec) (string, server.JobSpec) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), spec
}

// waitState polls until the job reports the wanted state.
func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if st := getStatus(t, base, id); st.State == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
}

// FuzzDecodeJobSpec asserts the spec decoder never panics on arbitrary
// bytes, and that anything it accepts lowers consistently: one RunConfig
// per declared run, each passing bgp.Check, and a stable content-addressed
// job id.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`))
	f.Add([]byte(`{"tenant":"alice","runs":[` +
		`{"benchmark":"mg","class":"W","ranks":8,"mode":"smp1","opts":"-O5 -qarch=440d","l3_bytes":-1},` +
		`{"benchmark":"ft","class":"A","ranks":16,"mode":"dual","l2_prefetch_depth":4,"l3_prefetch_depth":2}]}`))
	f.Add([]byte(`{"runs":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"runs":[{"benchmark":"\\u0000","class":"S","ranks":1,"mode":"vnm"}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":-9e18,"mode":"vnm"}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm",` +
		`"l3_bytes":67108865,"l2_prefetch_depth":1099511627776,"l3_prefetch_depth":65}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm",` +
		`"l3_bytes":67108864,"l2_prefetch_depth":64,"l3_prefetch_depth":64}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm","nodes":129,"l3_bytes":67108864}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":1021,"mode":"vnm","l3_bytes":33554432}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"sp","class":"S","ranks":520,"mode":"vnm","l3_bytes":67108864}]}`))
	f.Add([]byte(`{"runs":[{"benchmark":"ep","class":"S","ranks":8,"mode":"vnm","nodes":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, cfgs, err := server.DecodeJobSpec(bytes.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		if len(cfgs) != len(spec.Runs) {
			t.Fatalf("decoded %d runs into %d configs", len(spec.Runs), len(cfgs))
		}
		id := server.JobID(spec, cfgs)
		if !strings.HasPrefix(id, "job-") || len(id) != len("job-")+16 {
			t.Fatalf("malformed job id %q", id)
		}
		// The id is a pure function of the accepted spec.
		if again := server.JobID(spec, cfgs); again != id {
			t.Fatalf("job id unstable: %q then %q", id, again)
		}
		for i, cfg := range cfgs {
			if cfg.Ranks <= 0 || cfg.Ranks > server.MaxRanks {
				t.Fatalf("run %d: accepted out-of-range ranks %d", i, cfg.Ranks)
			}
			if fmt.Sprint(cfg.Benchmark) == "" {
				t.Fatalf("run %d: accepted empty benchmark", i)
			}
			if cfg.L3Bytes > bgp.MaxL3Bytes || cfg.L3Bytes > 0 && cfg.L3Bytes < bgp.MinL3Bytes ||
				cfg.L2PrefetchDepth > bgp.MaxPrefetchDepth || cfg.L3PrefetchDepth > bgp.MaxPrefetchDepth {
				t.Fatalf("run %d: accepted out-of-bounds machine overrides %d/%d/%d",
					i, cfg.L3Bytes, cfg.L2PrefetchDepth, cfg.L3PrefetchDepth)
			}
			if err := bgp.Check(cfg); err != nil {
				t.Fatalf("run %d: accepted a configuration bgp.Check refuses: %v", i, err)
			}
			nodes := cfg.Nodes
			if nodes == 0 {
				src, _, _ := bgp.ResolveWorkload(cfg)
				rpn := cfg.Mode.RanksPerNode()
				nodes = (src.RanksFor(cfg.Ranks) + rpn - 1) / rpn
			}
			if l3 := bgp.PartitionL3Bytes(cfg, nodes); l3 > bgp.MaxPartitionL3Bytes {
				t.Fatalf("run %d: accepted a partition booking %d bytes of L3 over %d nodes", i, l3, nodes)
			}
		}
	})
}
