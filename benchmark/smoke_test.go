package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"testing"
)

// TestSmoke runs the benchmark the way the driver does, in -smoke mode: one
// repetition of every workload, both passes. It fails when an API the
// benchmark calls has changed its behaviour, when an output is wrong, or
// when a metric goes missing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bgpd and simulates for about half a minute")
	}
	cmd := exec.Command("go", "run", "./benchmark", "-smoke")
	cmd.Dir = ".."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./benchmark -smoke: %v\n%s", err, stderr.String())
	}

	infos := map[string]runInfo{}
	results := map[string]result{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	var last runInfo
	for sc.Scan() {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("output line is not JSON: %v\n%s", err, sc.Text())
		}
		if _, ok := probe["metrics"]; !ok {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatal(err)
			}
			infos[last.Workload] = last
			continue
		}
		if len(probe) != 4 {
			t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics", last.Workload, len(probe))
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		results[last.Workload] = r
	}

	for _, w := range workloadWhy {
		r, ok := results[w.Name]
		if !ok {
			t.Errorf("%s: no result", w.Name)
			continue
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v",
				w.Name, r.Correct, r.Attempted, r.Failed, infos[w.Name].Problems)
		}
		if len(r.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(r.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, d.Name, m, d.Unit)
			}
		}
		for _, d := range perLayer {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want a value in %s", w.Name, d.Name, m, d.Unit)
			}
		}
		if r.Metrics["obs.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: obs.trace_overhead_ratio not reported", w.Name)
		}
	}

	// The traced warm repetition replays: nothing is recorded, and every
	// epoch but each run's unrecorded last one hits. (The gate has already
	// required traced and untraced repetitions to share one sim_digest.)
	warm := results["figs_warm"].Metrics
	if got := warm["epochmemo.hit_ratio"].Value; got < 0.8 {
		t.Errorf("figs_warm: traced epochmemo.hit_ratio = %.3f; the observer has switched the memo off", got)
	}
	if got := warm["epochmemo.stores"].Value; got != 0 {
		t.Errorf("figs_warm: traced repetition recorded %v epochs, want 0", got)
	}
	if got := warm["progcache.hit_ratio"].Value; got != 1 {
		t.Errorf("figs_warm: progcache.hit_ratio = %v, want 1", got)
	}
	if infos["figs_warm"].SimDigest == "" || infos["figs_warm"].SimDigest != infos["figs_cold"].SimDigest {
		t.Errorf("figs_warm and figs_cold regenerate the same tables but report digests %q and %q",
			infos["figs_warm"].SimDigest, infos["figs_cold"].SimDigest)
	}
	// bgpd_mix's cache counters matched the sequence (a mismatch is a
	// problem, which makes the run incorrect); the served classes exist.
	mix := results["bgpd_mix"].Metrics
	for _, name := range []string{"server.job_fresh_p50_ms", "server.job_store_p50_ms", "server.accept_p50_ms",
		"server.http_submit_us", "server.sim_share_of_fresh", "journal.append_p50_us", "bgp.persist_ms_at_1000"} {
		if mix[name].Value <= 0 {
			t.Errorf("bgpd_mix: %s = %v, want a positive value", name, mix[name].Value)
		}
	}
}
