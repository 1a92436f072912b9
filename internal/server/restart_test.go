package server_test

// Restart persistence: the checkpoint store is the daemon's durable tier,
// so killing a server mid-workload and starting a fresh instance on the
// same directory must serve everything already completed from disk and
// re-execute only the interrupted remainder, converging to dumps
// byte-identical to an uninterrupted run — the service-level extension of
// the TestSweepResumeAfterCancel pattern.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/server"
)

// TestRestartServesStoreAndResumesInterruptedSweep runs three single-run
// jobs on a first server instance whose fault injector stalls the second
// configuration forever: job 0 completes and persists, job 1 hangs until
// the server closes, job 2 never starts (one job worker). A fresh
// instance on the same checkpoint directory then receives the three
// configurations as one sweep job: run 0 restores from the store without
// re-simulating, runs 1 and 2 execute, and every dump equals the
// uninterrupted bgp.Run baseline byte for byte.
func TestRestartServesStoreAndResumesInterruptedSweep(t *testing.T) {
	specs := fastSpecs()
	cfgs := make([]bgp.RunConfig, len(specs))
	goldens := make([][][]byte, len(specs))
	for i, rs := range specs {
		cfgs[i] = compileSpec(t, rs)
		goldens[i] = goldenDumps(t, cfgs[i])
	}
	ckptDir := t.TempDir()

	// First instance: stall the second configuration's only attempt, and
	// serialize job execution so the third job is still queued when the
	// stall bites. The stall blocks until the server closes — a
	// deterministic stand-in for "killed mid-sweep".
	inj := faults.New(0xBEEF)
	inj.Arm(bgp.RunKey(0, cfgs[1]), faults.Stall)
	s1, ts1 := newTestServer(t, server.Config{
		CheckpointDir: ckptDir,
		JobWorkers:    1,
		RunWorkers:    1,
		Faults:        inj,
	})
	var ids [3]string
	for i, rs := range specs {
		st := submitJob(t, ts1.URL, server.JobSpec{Tenant: "restart", Runs: []server.RunSpec{rs}})
		ids[i] = st.ID
	}
	first := waitDone(t, ts1.URL, ids[0])
	if first.State != server.StateDone {
		t.Fatalf("first job ended %s before the interrupt: %s", first.State, first.Error)
	}
	// Interrupt: the stalled job dies with the server; the third never ran.
	ts1.Close()
	s1.Close()
	if n := s1.Store().Len(); n != 1 {
		t.Fatalf("store indexes %d runs after the interrupt, want 1", n)
	}
	// Deleting the job journal isolates the store tier: with it, the second
	// instance would re-queue the interrupted jobs itself (that path is
	// TestCrashRecoveryReplaysJournal's subject) and skew the miss counts.
	if err := os.Remove(filepath.Join(ckptDir, server.JournalFile)); err != nil {
		t.Fatal(err)
	}

	// Fresh instance, same directory: the committed entry serves the
	// completed run; the interrupted remainder re-executes.
	s2, ts2 := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	if n := s2.Store().Len(); n != 1 {
		t.Fatalf("restarted store indexes %d runs, want 1", n)
	}
	st := submitJob(t, ts2.URL, server.JobSpec{Tenant: "restart", Runs: specs})
	st = waitDone(t, ts2.URL, st.ID)
	if st.State != server.StateDone {
		t.Fatalf("resumed sweep ended %s: %s", st.State, st.Error)
	}
	if st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("resumed sweep counters %+v", st)
	}
	if st.CacheHits != 1 {
		t.Errorf("resumed sweep reports %d cache hits, want 1 (the pre-interrupt run)", st.CacheHits)
	}
	snap := s2.Registry().Snapshot().Counters
	if hits := snap[server.MetricCacheHitStore]; hits != 1 {
		t.Errorf("server.cache.hit_store = %d, want 1", hits)
	}
	if miss := snap[server.MetricCacheMiss]; miss != 2 {
		t.Errorf("server.cache.miss = %d, want 2 (only the interrupted runs re-simulate)", miss)
	}
	if n := s2.Store().Len(); n != len(specs) {
		t.Errorf("store indexes %d runs after resume, want %d", n, len(specs))
	}
	requireMemoReplayed(t, s2)

	// The resumed results are byte-identical to the uninterrupted
	// baseline — restored and re-executed runs alike.
	for run, golden := range goldens {
		for node := range golden {
			if got := fetchDump(t, ts2.URL, st.ID, run, node); !bytes.Equal(got, golden[node]) {
				t.Errorf("run %d node %d: resumed dump differs from uninterrupted baseline", run, node)
			}
		}
	}
}
