package server_test

// Concurrency contract of the content-addressed cache, exercised under
// -race in CI: any number of simultaneous submissions of the same RunKey
// cost exactly one simulation, and every caller reads the same bytes.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/server"
)

// TestConcurrentSameRunKeyCoalesces fires N submissions of one run
// configuration from N goroutines under N distinct tenants (distinct jobs,
// so dedup happens at the RunKey flight table and the store, not at the
// job id). Exactly one simulation executes — server.cache.miss == 1 — the
// other N-1 resolutions are cache hits, and all N jobs serve dumps
// byte-identical to each other and to bgp.Run.
func TestConcurrentSameRunKeyCoalesces(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, server.Config{
		// Plenty of parallel capacity so submissions genuinely overlap.
		JobWorkers: n,
		QueueDepth: n,
		TenantJobs: n,
	})
	rs := fastSpecs()[0]
	golden := goldenDumps(t, compileSpec(t, rs))

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submitJob(t, ts.URL, server.JobSpec{
				Tenant: fmt.Sprintf("tenant-%d", i),
				Runs:   []server.RunSpec{rs},
			})
			st = waitDone(t, ts.URL, st.ID)
			if st.State != server.StateDone {
				t.Errorf("tenant %d: job ended %s: %s", i, st.State, st.Error)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap := s.Registry().Snapshot().Counters
	if miss := snap[server.MetricCacheMiss]; miss != 1 {
		t.Errorf("server.cache.miss = %d, want exactly 1 simulation for %d submissions", miss, n)
	}
	if hit := snap[server.MetricCacheHit]; hit < n-1 {
		t.Errorf("server.cache.hit = %d, want >= %d", hit, n-1)
	}
	if got := snap[server.MetricCacheHitInflight] + snap[server.MetricCacheHitStore]; got != snap[server.MetricCacheHit] {
		t.Errorf("hit breakdown %d+%d does not sum to server.cache.hit %d",
			snap[server.MetricCacheHitInflight], snap[server.MetricCacheHitStore], snap[server.MetricCacheHit])
	}

	// Every caller reads identical bytes, and they are the simulator's.
	for i, id := range ids {
		for node := range golden {
			if got := fetchDump(t, ts.URL, id, 0, node); !bytes.Equal(got, golden[node]) {
				t.Errorf("tenant %d node %d: dump differs from bgp.Run's", i, node)
			}
		}
	}
}

// TestKeyNeighboursDoNotShareJobs submits the two valid wire runs that met at
// the 32-bit RunKey's birthday bound (both keyed run0000-eadf053c, so both
// one job): the job table answered the second submission with the first
// one's results. They are distinct runs, so they must get distinct
// job ids, each must simulate, and each must serve its own configuration's
// dumps.
func TestKeyNeighboursDoNotShareJobs(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	var ids [2]string
	for i, l3 := range []int{1553408, 20154112} {
		rs := server.RunSpec{Benchmark: "ep", Class: "S", Ranks: 4, Mode: "vnm", L3Bytes: l3}
		cfg := compileSpec(t, rs)
		spec := server.JobSpec{Tenant: "anonymous", Runs: []server.RunSpec{rs}}
		st := submitJob(t, ts.URL, spec)
		if want := server.JobID(&spec, []bgp.RunConfig{cfg}); st.ID != want {
			t.Errorf("l3=%d: submitted as %s, JobID says %s", l3, st.ID, want)
		}
		st = waitDone(t, ts.URL, st.ID)
		if st.State != server.StateDone {
			t.Fatalf("l3=%d: job ended %s: %s", l3, st.State, st.Error)
		}
		ids[i] = st.ID
		for node, want := range goldenDumps(t, cfg) {
			if got := fetchDump(t, ts.URL, st.ID, 0, node); !bytes.Equal(got, want) {
				t.Errorf("l3=%d node %d: dump differs from bgp.Run's", l3, node)
			}
		}
	}
	if ids[0] == ids[1] {
		t.Errorf("distinct runs share job id %s", ids[0])
	}
	snap := s.Registry().Snapshot().Counters
	if miss := snap[server.MetricCacheMiss]; miss != 2 {
		t.Errorf("server.cache.miss = %d, want 2: one run answered for the other", miss)
	}
	if n := s.Store().Len(); n != 2 {
		t.Errorf("store holds %d committed runs, want 2", n)
	}
}
