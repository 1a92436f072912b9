package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/cas"
	"bgpsim/internal/faults"
	"bgpsim/internal/journal"
	"bgpsim/internal/obs"
	"bgpsim/internal/sweep"
)

// Server metric names, exported through the obs registry at /metrics.
const (
	// MetricJobsSubmitted counts accepted submissions (new jobs queued).
	MetricJobsSubmitted = "server.jobs.submitted"
	// MetricJobsDeduped counts submissions answered with an existing job.
	MetricJobsDeduped = "server.jobs.deduped"
	// MetricJobsRejected counts submissions refused with 429 (queue
	// overflow or per-tenant concurrency limit).
	MetricJobsRejected = "server.jobs.rejected"
	// MetricJobsDone / MetricJobsFailed count jobs that reached a terminal
	// state in this process. A finished job a boot replay registers from
	// its journal record is not counted again; a job the replay fails (its
	// recovery budget spent) counts as failed.
	MetricJobsDone   = "server.jobs.done"
	MetricJobsFailed = "server.jobs.failed"
	// MetricJobsActive gauges jobs admitted but not yet terminal.
	MetricJobsActive = "server.jobs.active"
	// MetricQueueDepth gauges jobs waiting for a job worker.
	MetricQueueDepth = "server.queue.depth"
	// MetricCacheHit counts runs served without simulating: coalesced
	// onto an in-flight simulation or restored from the checkpoint
	// store. The breakdowns sum to it.
	MetricCacheHit         = "server.cache.hit"
	MetricCacheHitInflight = "server.cache.hit_inflight"
	MetricCacheHitStore    = "server.cache.hit_store"
	// MetricCacheMiss counts runs that executed a simulation.
	MetricCacheMiss = "server.cache.miss"
	// MetricResultRepaired counts result fetches that found a run's
	// checkpoint entry invalid and re-resolved the run.
	MetricResultRepaired = "server.result.repaired"

	// MetricJournalRecords counts records appended to the write-ahead job
	// journal; MetricJournalReplayed counts records replayed at boot.
	MetricJournalRecords  = "server.journal.records"
	MetricJournalReplayed = "server.journal.replayed"
	// MetricJournalTruncated gauges the torn-tail bytes the boot replay
	// truncated away (a crash mid-append; detected, never fatal).
	MetricJournalTruncated = "server.journal.truncated_bytes"
	// MetricJournalRecovered counts non-terminal jobs re-queued by a boot
	// replay; MetricJournalRecoveryFailed counts jobs the replay had to
	// abandon (recovery budget exhausted, or an undecodable journaled spec).
	MetricJournalRecovered      = "server.journal.recovered"
	MetricJournalRecoveryFailed = "server.journal.recovery_failed"
	// MetricJournalErrors counts journal append/compact failures (the job
	// keeps running; durability degrades until the disk recovers).
	MetricJournalErrors = "server.journal.errors"
)

// JournalFile is the write-ahead job journal's name under CheckpointDir,
// next to the checkpoint store's per-run entry directories.
const JournalFile = "JOURNAL.wal"

// Config parameterizes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// CheckpointDir is the durable result store; required.
	CheckpointDir string
	// RunWorkers bounds concurrent simulations across all jobs
	// (default GOMAXPROCS).
	RunWorkers int
	// JobWorkers bounds jobs executing concurrently (default 4).
	JobWorkers int
	// QueueDepth bounds jobs admitted but not yet picked up by a job
	// worker; submissions past it are refused with 429 (default 64).
	QueueDepth int
	// TenantJobs bounds one tenant's active (queued + running) jobs;
	// submissions past it are refused with 429 (default 8).
	TenantJobs int
	// Faults, when non-nil, is the deterministic fault injector consulted
	// by every run — the chaos knob, exactly as in batch sweeps.
	Faults *faults.Injector
	// Registry, when non-nil, receives the server's metrics; nil creates
	// a private registry (retrievable via Registry).
	Registry *obs.Registry
	// MaxRecoveries bounds how many times a crash may re-queue one job
	// before the replay fails it with a diagnostic instead — the per-job
	// circuit breaker against crash-looping specs (default 3).
	MaxRecoveries int
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.RunWorkers < 1 {
		c.RunWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobWorkers < 1 {
		c.JobWorkers = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.TenantJobs < 1 {
		c.TenantJobs = 8
	}
	if c.MaxRecoveries < 1 {
		c.MaxRecoveries = 3
	}
	return c
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one admitted submission. It holds no results: every completed run
// is in the checkpoint store under bgp.RunKey(0, cfg), and the result route
// reads it from there.
type job struct {
	id      string
	tenant  string
	cfgs    []bgp.RunConfig
	created time.Time

	mu         sync.Mutex
	state      string
	completed  int
	failed     int
	cacheHits  int
	recoveries int // crash re-queues consumed (journal replay)
	errMsg     string
	done       chan struct{} // closed when the job reaches a terminal state
}

// newJob builds a queued job for a decoded submission.
func newJob(id string, spec *JobSpec, cfgs []bgp.RunConfig, created time.Time) *job {
	return &job{
		id:      id,
		tenant:  spec.Tenant,
		cfgs:    cfgs,
		created: created,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
}

// admissionError is an admission refusal — per-tenant concurrency or queue
// overflow — that handlers render as 429. Any other Submit error (a journal
// append failure) is an internal fault rendered as 500: a submission that
// could not be made durable must not be acknowledged.
type admissionError struct{ msg string }

func (e *admissionError) Error() string { return e.msg }

// admissionErrf builds an admissionError.
func admissionErrf(format string, args ...any) error {
	return &admissionError{msg: fmt.Sprintf(format, args...)}
}

// Server runs simulation jobs behind an HTTP API with a content-addressed
// result cache. Create one with New, mount Handler, and Close it to stop.
type Server struct {
	cfg      Config
	store    *bgp.CheckpointStore
	reg      *obs.Registry
	observer bgp.Observer
	jnl      *journal.Journal // locked: this server is the directory's only one

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	runSem chan struct{}

	mu        sync.Mutex
	queueCond *sync.Cond // signalled on pending appends and close
	pending   []*job     // FIFO of jobs waiting for a job worker
	closed    bool
	jobs      map[string]*job
	tenants   map[string]int

	// flights coalesces concurrent resolutions of one RunKey: the shared
	// store used as a pure build-once table (unbounded, and every entry is
	// dropped as soon as its build finishes — the durable tier is the
	// checkpoint store).
	flights *cas.Store[string, *bgp.Result]

	jobsSubmitted, jobsDeduped, jobsRejected *obs.Counter
	jobsDone, jobsFailed                     *obs.Counter
	jobsActive, queueDepth                   *obs.Gauge
	cacheHit, cacheHitInflight               *obs.Counter
	cacheHitStore, cacheMiss                 *obs.Counter
	resultRepaired                           *obs.Counter

	journalRecords, journalReplayed         *obs.Counter
	journalRecovered, journalRecoveryFailed *obs.Counter
	journalErrors                           *obs.Counter
	journalTruncated                        *obs.Gauge
}

// New opens the checkpoint store (its committed entries are the directory's
// own index, so a restarted daemon serves previously completed work from
// disk with nothing to load), locks and replays the write-ahead job journal
// — registering finished jobs from their records and re-queuing every job
// the previous instance left non-terminal — and starts the job workers. A
// directory another server holds is refused.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: CheckpointDir is required")
	}
	store, err := bgp.OpenCheckpointStore(cfg.CheckpointDir, true)
	if err != nil {
		return nil, err
	}
	jnl, recs, err := journal.Open(filepath.Join(cfg.CheckpointDir, JournalFile))
	if errors.Is(err, journal.ErrLocked) {
		return nil, fmt.Errorf("server: checkpoint directory %s is in use by another bgpd: %w", cfg.CheckpointDir, err)
	}
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		store:    store,
		reg:      reg,
		observer: obs.NewRecorder(reg, nil),
		jnl:      jnl,
		ctx:      ctx,
		cancel:   cancel,
		runSem:   make(chan struct{}, cfg.RunWorkers),
		jobs:     make(map[string]*job),
		tenants:  make(map[string]int),
		flights:  cas.New[string, *bgp.Result](0),

		jobsSubmitted:    reg.Counter(MetricJobsSubmitted),
		jobsDeduped:      reg.Counter(MetricJobsDeduped),
		jobsRejected:     reg.Counter(MetricJobsRejected),
		jobsDone:         reg.Counter(MetricJobsDone),
		jobsFailed:       reg.Counter(MetricJobsFailed),
		jobsActive:       reg.Gauge(MetricJobsActive),
		queueDepth:       reg.Gauge(MetricQueueDepth),
		cacheHit:         reg.Counter(MetricCacheHit),
		cacheHitInflight: reg.Counter(MetricCacheHitInflight),
		cacheHitStore:    reg.Counter(MetricCacheHitStore),
		cacheMiss:        reg.Counter(MetricCacheMiss),
		resultRepaired:   reg.Counter(MetricResultRepaired),

		journalRecords:        reg.Counter(MetricJournalRecords),
		journalReplayed:       reg.Counter(MetricJournalReplayed),
		journalRecovered:      reg.Counter(MetricJournalRecovered),
		journalRecoveryFailed: reg.Counter(MetricJournalRecoveryFailed),
		journalErrors:         reg.Counter(MetricJournalErrors),
		journalTruncated:      reg.Gauge(MetricJournalTruncated),
	}
	s.queueCond = sync.NewCond(&s.mu)
	s.journalTruncated.Set(jnl.Truncated())
	// Replay — register and re-queue — strictly before the first new
	// append, then compact, so the rewritten log cannot drop records.
	s.recoverJournal(recs)
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.jobWorker()
	}
	return s, nil
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store returns the server's checkpoint store.
func (s *Server) Store() *bgp.CheckpointStore { return s.store }

// Close stops the server: in-flight simulations are cancelled (their jobs
// fail with the cancellation error in this process's memory, but their
// journal records still say running/queued, so a restarted server re-queues
// and completes them; completed runs are already persisted) and the workers
// drain. Closing the journal releases the directory to the next server.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	s.queueCond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.jnl.Close()
}

// Submit admits one decoded job. It returns the (possibly pre-existing)
// job and created=true when this call queued a new job. An *admissionError
// is an admission refusal (per-tenant limit or queue overflow) that
// handlers render as 429; any other error is a journal failure — the
// submission was NOT made durable and was not admitted (500).
func (s *Server) Submit(spec *JobSpec, cfgs []bgp.RunConfig) (j *job, created bool, err error) {
	id := JobID(spec, cfgs)

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.mu.Lock()
		terminalFailed := j.state == StateFailed
		j.mu.Unlock()
		if !terminalFailed {
			// Idempotent resubmission: same content address, same job.
			s.jobsDeduped.Inc()
			return j, false, nil
		}
		// A failed job may be resubmitted; it re-queues as a fresh job
		// below (completed runs will restore from the store), which
		// admitLocked puts in its place. A refused resubmission leaves the
		// failed job where it is.
	}
	if s.tenants[spec.Tenant] >= s.cfg.TenantJobs {
		s.jobsRejected.Inc()
		return nil, false, admissionErrf("tenant %q has %d active jobs (limit %d)",
			spec.Tenant, s.tenants[spec.Tenant], s.cfg.TenantJobs)
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.jobsRejected.Inc()
		return nil, false, admissionErrf("job queue full (%d queued)", len(s.pending))
	}
	j = newJob(id, spec, cfgs, time.Now())
	// Write-ahead: the submission reaches the disk before the caller sees
	// its 202, so an accepted job survives any later crash.
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, false, fmt.Errorf("encoding spec for the journal: %w", err)
	}
	if err := s.appendJournal(journal.Record{
		Kind: journal.KindSubmit, Job: id, Tenant: spec.Tenant,
		Spec: raw, CreatedUnix: j.created.Unix(),
	}); err != nil {
		return nil, false, err
	}
	s.admitLocked(j)
	s.jobsSubmitted.Inc()
	return j, true, nil
}

// admitLocked registers j and appends it to the worker queue. Callers hold
// s.mu.
func (s *Server) admitLocked(j *job) {
	s.jobs[j.id] = j
	s.tenants[j.tenant]++
	s.jobsActive.Add(1)
	s.pending = append(s.pending, j)
	s.queueDepth.Set(int64(len(s.pending)))
	s.queueCond.Signal()
}

// lookup returns the job with the given id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobWorker drains the queue until the server closes.
func (s *Server) jobWorker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.queueCond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.queueDepth.Set(int64(len(s.pending)))
		s.mu.Unlock()
		s.runJob(j)
	}
}

// appendJournal appends one record and counts it, or counts the failure.
func (s *Server) appendJournal(rec journal.Record) error {
	if err := s.jnl.Append(rec); err != nil {
		s.journalErrors.Inc()
		return err
	}
	s.journalRecords.Inc()
	return nil
}

// record renders the job's state as a journal state record carrying what
// its status shows, so a replay can register a terminal job from the record
// alone. failed is not stored: it is the runs the job did not complete.
func (j *job) record() journal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return journal.Record{
		Kind: journal.KindState, Job: j.id, State: j.state, Error: j.errMsg,
		Recoveries: j.recoveries, Completed: j.completed, CacheHits: j.cacheHits,
	}
}

// runJob executes every run of a job, resolving each through the result
// cache, and drives the job to its terminal state. Journal appends that
// fail are counted and tolerated: the job proceeds, and durability
// degrades until the disk recovers.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	s.appendJournal(j.record())

	var wg sync.WaitGroup
	for i := range j.cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := s.resolve(s.ctx, j.cfgs[i])
			j.mu.Lock()
			defer j.mu.Unlock()
			if err != nil {
				j.failed++
				if j.errMsg == "" {
					j.errMsg = fmt.Sprintf("run %d: %v", i, err)
				}
				return
			}
			j.completed++
			if hit {
				j.cacheHits++
			}
		}(i)
	}
	wg.Wait()

	// The terminal state and the tenant slot's release are one step under
	// s.mu, so no caller sees a finished job still counted as active.
	s.mu.Lock()
	j.mu.Lock()
	if j.failed > 0 {
		j.state = StateFailed
		s.jobsFailed.Inc()
	} else {
		j.state = StateDone
		s.jobsDone.Inc()
	}
	state := j.state
	close(j.done)
	j.mu.Unlock()
	s.tenants[j.tenant]--
	if s.tenants[j.tenant] == 0 {
		delete(s.tenants, j.tenant)
	}
	s.jobsActive.Add(-1)
	s.mu.Unlock()
	// A job torn down by server shutdown did not fail — it was interrupted.
	// Leaving its journal record at running/queued is what lets a restarted
	// instance re-queue and finish it.
	if !(state == StateFailed && s.ctx.Err() != nil) {
		s.appendJournal(j.record())
	}
}

// resolve produces the result of one run configuration through the
// two-tier cache: coalesce onto an in-flight simulation of the same
// RunKey, else restore from the checkpoint store, else simulate (and
// persist). hit reports whether a simulation was avoided.
func (s *Server) resolve(ctx context.Context, cfg bgp.RunConfig) (res *bgp.Result, hit bool, err error) {
	key := bgp.RunKey(0, cfg)
	var storeHit bool
	res, coalesced, err := s.flights.Do(ctx, key, 0, func() (*bgp.Result, error) {
		res, hit, err := s.build(ctx, key, cfg)
		storeHit = hit
		return res, err
	})
	if coalesced {
		s.cacheHit.Inc()
		s.cacheHitInflight.Inc()
		return res, true, err
	}
	// Drop the completed flight: late arrivals find the result in the
	// store (persisted before the flight closed). A failed flight is
	// already gone — the table keeps no failures — so late arrivals
	// rebuild it themselves.
	if err == nil {
		s.flights.Delete(key)
	}
	return res, storeHit, err
}

// repair re-resolves run i of a done job whose checkpoint entry was found
// invalid at fetch time — flight, then store, then simulate and persist —
// while the request waits. It runs under the server's context, so a
// departing client cannot fail a job coalesced onto the same flight.
func (s *Server) repair(j *job, i int) (*bgp.Result, error) {
	s.resultRepaired.Inc()
	res, _, err := s.resolve(s.ctx, j.cfgs[i])
	return res, err
}

// build resolves a flight: store restore first, counted here as a store
// hit, then a single-run sweep, bounded by the run slots, that persists
// into the store's directory (its own restore probe misses, as this one
// just did). The returned bool reports a store hit (no simulation executed).
func (s *Server) build(ctx context.Context, key string, cfg bgp.RunConfig) (*bgp.Result, bool, error) {
	if res := s.store.Restore(key, cfg); res != nil {
		s.cacheHit.Inc()
		s.cacheHitStore.Inc()
		return res, true, nil
	}
	s.cacheMiss.Inc()
	select {
	case s.runSem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-s.runSem }()
	results, err := bgp.RunAll(ctx, []bgp.RunConfig{cfg}, bgp.SweepConfig{
		Workers:       1,
		CheckpointDir: s.cfg.CheckpointDir,
		Faults:        s.cfg.Faults,
		Observer:      s.observer,
	})
	// A one-run sweep's failure is the run's own (or the cancellation that
	// skipped it), not the aggregate.
	var se *sweep.SweepError
	if errors.As(err, &se) {
		err = se.Unwrap()[0]
	}
	if err != nil {
		return nil, false, err
	}
	return results[0], false, nil
}
