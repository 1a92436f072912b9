package server

import (
	"fmt"
	"runtime"
	"testing"

	bgp "bgpsim"
)

// TestCompletedJobsHoldNoResults pins that a terminal job keeps only its
// counts: 200 store-hit jobs of one configuration, under distinct tenants
// so each is its own job, may retain well under one Result's worth of heap
// apiece once collected. A job holding its Result retains about 15 KB for
// this point; the job record itself is well under 1 KB.
func TestCompletedJobsHoldNoResults(t *testing.T) {
	const jobs, maxPerJob = 200, 4 << 10
	s, err := New(Config{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	rs := RunSpec{Benchmark: "mg", Class: "S", Ranks: 4, Mode: "smp1", Opts: "-O5 -qarch=440d"}
	complete := func(tenant string) {
		t.Helper()
		cfg, err := rs.Compile()
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		spec := &JobSpec{Tenant: tenant, Runs: []RunSpec{rs}}
		j, _, err := s.Submit(spec, []bgp.RunConfig{cfg})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-j.done
		if st := j.status(); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// The first job simulates and persists; every later one is a store hit.
	complete("warm")
	before := heap()
	for i := 0; i < jobs; i++ {
		complete(fmt.Sprintf("tenant-%03d", i))
	}
	after := heap()
	if hits := s.cacheHitStore.Value(); hits != jobs {
		t.Fatalf("server.cache.hit_store = %d, want %d", hits, jobs)
	}
	if perJob := (after - before) / jobs; perJob >= maxPerJob {
		t.Errorf("each completed job retains %d bytes of heap (limit %d): a terminal job is holding its results", perJob, maxPerJob)
	} else {
		t.Logf("each completed job retains %d bytes of heap", perJob)
	}
}
