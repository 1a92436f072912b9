package server_test

// Shadow-audit end to end: with AuditFraction 1, every store-served run is
// re-simulated on the slow path in the background and its dump bytes
// compared. A healthy store must produce only server.audit.ok — the
// determinism contract (accelerated path == slow path, byte for byte)
// checked continuously in production rather than only in the test suite.

import (
	"testing"
	"time"

	"bgpsim/internal/server"
)

// TestShadowAuditConfirmsStoreHits completes a two-run job, resubmits the
// same runs under another tenant (a distinct job id whose runs are pure
// store hits), and waits for the background audit to confirm both hits.
func TestShadowAuditConfirmsStoreHits(t *testing.T) {
	specs := fastSpecs()[:2]
	s, ts := newTestServer(t, server.Config{AuditFraction: 1})

	first := submitJob(t, ts.URL, server.JobSpec{Tenant: "alice", Runs: specs})
	if st := waitDone(t, ts.URL, first.ID); st.State != server.StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	second := submitJob(t, ts.URL, server.JobSpec{Tenant: "bob", Runs: specs})
	if second.ID == first.ID {
		t.Fatalf("distinct tenants share job id %s", second.ID)
	}
	st := waitDone(t, ts.URL, second.ID)
	if st.State != server.StateDone {
		t.Fatalf("second job ended %s: %s", st.State, st.Error)
	}
	if st.CacheHits != len(specs) {
		t.Fatalf("second job reports %d cache hits, want %d", st.CacheHits, len(specs))
	}

	// The audit runs in the background; wait for both sampled hits to be
	// verified. Any mismatch on a healthy store is a determinism bug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.Registry().Snapshot().Counters
		if n := snap[server.MetricAuditMismatch]; n != 0 {
			t.Fatalf("server.audit.mismatch = %d on an uncorrupted store", n)
		}
		if snap[server.MetricAuditOK] >= uint64(len(specs)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit confirmed %d hits after 30s, want %d (skipped=%d)",
				snap[server.MetricAuditOK], len(specs), snap[server.MetricAuditSkipped])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
