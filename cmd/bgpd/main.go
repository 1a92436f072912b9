// Bgpd is the simulation-as-a-service daemon: a long-running HTTP server
// that accepts simulation and sweep jobs, executes them on the bounded
// sweep pool, and deduplicates identical submissions through a
// content-addressed result cache backed by the checkpoint store.
//
//	bgpd -addr localhost:8077 -checkpoint ./bgpd-ckpt
//
// Submit a job, poll it, fetch the results:
//
//	curl -s -X POST localhost:8077/v1/jobs \
//	  -H 'Content-Type: application/json' -d '{
//	  "tenant": "alice",
//	  "runs": [{"benchmark": "ep", "class": "S", "ranks": 4, "mode": "vnm",
//	            "opts": "-O5 -qarch=440d"}]
//	}'
//	curl -s localhost:8077/v1/jobs/<id>
//	curl -s localhost:8077/v1/jobs/<id>/result            # metrics CSV
//	curl -s 'localhost:8077/v1/jobs/<id>/result?run=0&node=0' > node0.bgpc
//
// Dumps are deterministic functions of the run configuration, so results
// are content-addressed and safely shared: re-submitting an identical spec
// — by any tenant — returns the persisted result without re-simulating,
// and concurrent submissions of the same configuration coalesce onto one
// in-flight simulation. The checkpoint directory is the durable tier: each
// completed run lives in its own <RunKey>/ directory, committed by its
// ENTRY.json record (entry version 3), so a restarted daemon keeps serving
// previously completed work with nothing to rescan. Directories written
// before version 3 are ignored — their runs re-execute, a stale
// MANIFEST.json is neither read nor written, and jobs journaled under the
// old ids are dropped at replay (server.journal.recovery_failed). The
// write-ahead job journal (JOURNAL.wal in the same directory) replays
// accepted-but-unfinished jobs after a crash — kill -9 the daemon mid-sweep,
// restart it on the same -checkpoint, and the same job ids converge to the
// same byte-identical results. A finished job comes back from its terminal
// journal record alone, with the status it had: a restart resolves none of
// its runs, and a run whose store entry has gone missing is re-resolved
// when it is fetched. One daemon owns a directory: it holds a lock
// on the journal while it runs, so a second bgpd on the same -checkpoint
// exits 1, and a restart after a crash starts at once. The /metrics
// endpoint exposes the server.* cache, admission, journal and repair
// counters alongside the sim.* and sweep.* metrics of the runs.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgpsim/internal/cliflags"
	"bgpsim/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpd: ")
	os.Exit(run())
}

// run carries the whole daemon so deferred shutdown fires before the
// process exits with a status code.
func run() int {
	var (
		addr       = flag.String("addr", "localhost:8077", "HTTP listen address")
		runWorkers = flag.Int("run-workers", 0, "concurrent simulations across all jobs (0 = one per host core)")
		jobWorkers = flag.Int("job-workers", 0, "concurrent jobs (0 = default 4)")
		queueDepth = flag.Int("queue", 0, "bounded job queue depth; submissions past it get 429 (0 = default 64)")
		tenantJobs = flag.Int("tenant-jobs", 0, "active jobs allowed per tenant; submissions past it get 429 (0 = default 8)")
		maxRetries = flag.Int("max-retries", 0, "cap on the per-run retry budget a job may request (0 = default 3)")
		maxTimeout = flag.Duration("max-run-timeout", 0, "cap on the per-attempt deadline a job may request (0 = default 10m)")
		maxRecover = flag.Int("max-recoveries", 0, "crash recoveries before a replayed job is failed instead of re-queued (0 = default 3)")
	)
	// The two flags the daemon shares with the batch commands: the checkpoint
	// directory is its durable result store, and the epoch memo is sized here,
	// once per process, never per job.
	var checkpoint string
	cliflags.CheckpointDir(flag.CommandLine, &checkpoint, "bgpd-ckpt")
	memoBudget := cliflags.MemoBudget(flag.CommandLine)
	flag.Parse()
	memoBudget()

	s, err := server.New(server.Config{
		CheckpointDir: checkpoint,
		RunWorkers:    *runWorkers,
		JobWorkers:    *jobWorkers,
		QueueDepth:    *queueDepth,
		TenantJobs:    *tenantJobs,
		MaxRetries:    *maxRetries,
		MaxRunTimeout: *maxTimeout,
		MaxRecoveries: *maxRecover,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer s.Close()
	log.Printf("checkpoint store %s", checkpoint)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving http://%s/v1/jobs (metrics at /metrics)", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Print(err)
		return 1
	case <-ctx.Done():
	}

	// Graceful stop: finish in-flight HTTP exchanges, then cancel the
	// simulations (completed runs are already persisted; a restart
	// resumes from the store).
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	return 0
}
