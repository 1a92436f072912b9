package server_test

// HTTP hardening: the submit endpoint refuses what it cannot safely
// decode — non-JSON content types (415) and bodies past the 1 MiB spec
// limit (413) — with JSON error bodies, before any bytes reach the
// decoder. The readiness probe distinguishes "up" (/healthz) from "able
// to admit work" (/readyz): a saturated job queue answers 503 so load
// balancers steer submissions elsewhere, exactly the states that already
// earn a 429 on POST.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/server"
)

// errorBody decodes the {"error": "..."} JSON rendering every refusal
// must carry.
func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading error body: %v", err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("refusal body %q is not a JSON error object", data)
	}
	return e.Error
}

// TestSubmitRejectsNonJSONContentType covers the 415 path: a valid spec
// body under the wrong (or missing) Content-Type is refused before
// decoding, while a JSON content type with parameters still passes.
func TestSubmitRejectsNonJSONContentType(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body, err := json.Marshal(server.JobSpec{Tenant: "ct", Runs: fastSpecs()[:1]})
	if err != nil {
		t.Fatal(err)
	}

	for _, ct := range []string{"text/plain", "application/xml", ""} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST with Content-Type %q: %v", ct, err)
		}
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q returned %d, want 415", ct, resp.StatusCode)
		}
		if msg := errorBody(t, resp); !strings.Contains(msg, "application/json") {
			t.Errorf("415 body %q does not name the required content type", msg)
		}
	}

	// Parameters on the media type are fine; only the type matters.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json; charset=utf-8", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Errorf("parameterized JSON content type returned %d: %s", resp.StatusCode, data)
	}
}

// TestSubmitRejectsOversizedBody covers the 413 path: a body past the
// 1 MiB spec limit is cut off at the limit and refused with a JSON error,
// not decoded and not half-admitted.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	big := `{"tenant":"` + strings.Repeat("a", 1<<20+1024) + `"}`
	code, data := submitRaw(t, ts.URL, big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413: %s", code, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Errorf("413 body %q does not explain the size limit", data)
	}
}

// readyz GETs the readiness probe.
func readyz(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /readyz: %v", err)
	}
	return resp.StatusCode, string(data)
}

// TestReadyzTracksQueueSaturation walks the probe through its states: an
// idle server is ready; a full job queue flips it to 503 (the same state
// that 429s a POST); draining the queue restores readiness.
func TestReadyzTracksQueueSaturation(t *testing.T) {
	specs := fastSpecs()
	cfgs := []bgp.RunConfig{compileSpec(t, specs[0])}
	inj := faults.New(0x9EAD)
	inj.Arm(bgp.RunKey(0, cfgs[0]), faults.Stall)
	_, ts := newTestServer(t, server.Config{
		JobWorkers: 1,
		RunWorkers: 1,
		QueueDepth: 1,
		Faults:     inj,
	})

	if code, body := readyz(t, ts.URL); code != http.StatusOK || !strings.Contains(body, `"ready": true`) {
		t.Fatalf("idle server /readyz = %d %q, want 200 ready", code, body)
	}

	// Occupy the only worker with a stalled job, then fill the queue.
	st := submitJob(t, ts.URL, server.JobSpec{Tenant: "r", Runs: specs[:1]})
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts.URL, st.ID).State != server.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("stalled job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	submitJob(t, ts.URL, server.JobSpec{Tenant: "r", Runs: specs[1:2]})
	if code, body := readyz(t, ts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server /readyz = %d %q, want 503", code, body)
	}
	// The same saturation refuses a POST with 429 — the probe and the
	// admission check see one queue.
	body, err := json.Marshal(server.JobSpec{Tenant: "r", Runs: specs[2:3]})
	if err != nil {
		t.Fatal(err)
	}
	if code, data := submitRaw(t, ts.URL, string(body)); code != http.StatusTooManyRequests {
		t.Fatalf("submission past the full queue returned %d, want 429: %s", code, data)
	}
}

// TestHealthzAnswersWithoutTheStore pins the liveness body: {"ok":true} and
// nothing counted, so a probe costs the same however large the checkpoint
// store grows; counting it reads every run's commit record.
func TestHealthzAnswersWithoutTheStore(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(data) != "{\"ok\":true}\n" {
		t.Fatalf("/healthz = %d %q, want 200 {\"ok\":true}", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz Content-Type %q, want application/json", ct)
	}
}
