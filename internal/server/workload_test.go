package server_test

// End-to-end workload-spec suite: a YAML spec submitted by value through
// the job API must round-trip the full lifecycle (submit → poll → fetch),
// resubmit as a pure content-addressed cache hit, and fail as a 400 with a
// JSON error body — never a 500 — when the spec is corrupt.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/server"
)

// hplWorkload reads specs/hpl.yaml — the committed HPL proxy — as the
// inline workload text a client would POST.
func hplWorkload(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "specs", "hpl.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func hplRunSpec(t *testing.T) server.RunSpec {
	return server.RunSpec{Spec: hplWorkload(t), Class: "S", Ranks: 4, Mode: "vnm", Opts: "-O5 -qarch=440d"}
}

// TestSubmitWorkloadSpec drives one spec run through the API and asserts
// the served dumps are byte-identical to bgp.Run on the same lowered
// configuration.
func TestSubmitWorkloadSpec(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	rs := hplRunSpec(t)
	golden := goldenDumps(t, compileSpec(t, rs))

	st := submitJob(t, ts.URL, server.JobSpec{Tenant: "alice", Runs: []server.RunSpec{rs}})
	st = waitDone(t, ts.URL, st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	for node := range golden {
		got := fetchDump(t, ts.URL, st.ID, 0, node)
		if !bytes.Equal(got, golden[node]) {
			t.Errorf("node %d dump differs from bgp.Run's", node)
		}
	}
}

// TestResubmitWorkloadSpecIsPureCacheHit is the tentpole's service-side
// acceptance: the second submission of one workload dedupes onto the same
// content-addressed job id, and a second tenant's identical runs are served
// wholly from the store — zero fresh simulations.
func TestResubmitWorkloadSpecIsPureCacheHit(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	spec := server.JobSpec{Tenant: "alice", Runs: []server.RunSpec{hplRunSpec(t)}}

	first := submitJob(t, ts.URL, spec)
	first = waitDone(t, ts.URL, first.ID)
	if first.State != server.StateDone {
		t.Fatalf("first job ended %s: %s", first.State, first.Error)
	}
	missAfterFirst := s.Registry().Snapshot().Counters[server.MetricCacheMiss]

	again := submitJob(t, ts.URL, spec)
	if again.ID != first.ID {
		t.Fatalf("identical workload resubmission got job %s, want %s", again.ID, first.ID)
	}

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
		t.Errorf("workload resubmission re-simulated: miss %d -> %d", missAfterFirst, snap[server.MetricCacheMiss])
	}
	if other.CacheHits != len(spec.Runs) {
		t.Errorf("job status reports %d cache hits, want %d", other.CacheHits, len(spec.Runs))
	}

	// A seed edit is a different workload: new job, fresh simulation.
	edited := spec
	edited.Runs = []server.RunSpec{hplRunSpec(t)}
	edited.Runs[0].Spec = strings.Replace(edited.Runs[0].Spec, "seed: 20080905", "seed: 20080906", 1)
	moved := submitJob(t, ts.URL, edited)
	if moved.ID == first.ID {
		t.Fatal("a seed edit deduped onto the original job; the fingerprint missed it")
	}
	moved = waitDone(t, ts.URL, moved.ID)
	if moved.State != server.StateDone {
		t.Fatalf("edited-seed job ended %s: %s", moved.State, moved.Error)
	}
	if got := s.Registry().Snapshot().Counters[server.MetricCacheMiss]; got != missAfterFirst+1 {
		t.Errorf("edited-seed job hit the cache (miss %d, want %d)", got, missAfterFirst+1)
	}
}

// TestSubmitCorruptWorkloadIs400 pins the failure contract: a workload that
// fails to decode answers 400 with a JSON error naming the YAML problem —
// never a 500, never a panic.
func TestSubmitCorruptWorkloadIs400(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name, workload, want string
	}{
		{"yaml garbage", "version: 1\n\tname: broken\n", "tab in indentation"},
		{"unknown field", "version: 1\nname: x\nbogus: 1\n", "unknown field"},
		{"both benchmark and workload", "", "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := server.RunSpec{Spec: tc.workload, Class: "S", Ranks: 4, Mode: "vnm"}
			if tc.workload == "" {
				rs = hplRunSpec(t)
				rs.Benchmark = "mg"
			}
			body, err := json.Marshal(server.JobSpec{Runs: []server.RunSpec{rs}})
			if err != nil {
				t.Fatal(err)
			}
			code, data := submitRaw(t, ts.URL, string(body))
			if code != http.StatusBadRequest {
				t.Fatalf("corrupt workload returned %d, want 400: %s", code, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("400 body is not JSON: %q", data)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}

	// Oversized workload: 413-class rejection is also a spec error here
	// (the limit guards the decoder, not the HTTP body cap).
	big := server.RunSpec{Spec: strings.Repeat("#", server.MaxWorkloadBytes+1) + "\n", Class: "S", Ranks: 4, Mode: "vnm"}
	body, err := json.Marshal(server.JobSpec{Runs: []server.RunSpec{big}})
	if err != nil {
		t.Fatal(err)
	}
	if code, data := submitRaw(t, ts.URL, string(body)); code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized workload returned %d, want 400/413: %.120s", code, data)
	}
}

// TestWorkloadJobIDIncludesFingerprint pins the content address at the
// spec layer: two distinct workloads lowering to the same class, ranks and
// mode must produce distinct job ids.
func TestWorkloadJobIDIncludesFingerprint(t *testing.T) {
	a := hplRunSpec(t)
	b := hplRunSpec(t)
	b.Spec = strings.Replace(b.Spec, "rounds: 6", "rounds: 5", 1)
	cfgA := compileSpec(t, a)
	cfgB := compileSpec(t, b)
	if bgp.RunKey(0, cfgA) == bgp.RunKey(0, cfgB) {
		t.Fatal("distinct workloads share a RunKey")
	}
	specA := &server.JobSpec{Tenant: "t", Runs: []server.RunSpec{a}}
	specB := &server.JobSpec{Tenant: "t", Runs: []server.RunSpec{b}}
	if server.JobID(specA, []bgp.RunConfig{cfgA}) == server.JobID(specB, []bgp.RunConfig{cfgB}) {
		t.Fatal("distinct workloads share a job id")
	}
}
