package obs

import "time"

// Phase names the host-side stages of one simulated run, in execution
// order: building the benchmark (the compiler model), running it under the
// MPI scheduler, and mining the counter dumps.
type Phase string

// The phases of bgp.Run.
const (
	PhaseCompile  Phase = "compile"
	PhaseRun      Phase = "run"
	PhasePostproc Phase = "postproc"
)

// Phases lists the run phases in order.
func Phases() []Phase { return []Phase{PhaseCompile, PhaseRun, PhasePostproc} }

// SweepEvent names an orchestration event of a parallel sweep.
type SweepEvent string

// The sweep events bgp.RunAll reports.
const (
	// EventPanic is a run that panicked (recovered by the pool).
	EventPanic SweepEvent = "panic"
	// EventRunFailed is a run that failed.
	EventRunFailed SweepEvent = "run_failed"
	// EventRunSkipped is a run cancelled before it started.
	EventRunSkipped SweepEvent = "run_skipped"
	// EventCheckpointPersist is one run's dump set committed to a
	// checkpoint directory.
	EventCheckpointPersist SweepEvent = "checkpoint_persist"
	// EventCheckpointRestore is one run restored from a checkpoint
	// instead of executed.
	EventCheckpointRestore SweepEvent = "checkpoint_restore"
)

// SweepEvents lists every sweep event kind.
func SweepEvents() []SweepEvent {
	return []SweepEvent{
		EventPanic, EventRunFailed, EventRunSkipped,
		EventCheckpointPersist, EventCheckpointRestore,
	}
}

// RunStats is the aggregate machine-side accounting of one completed run,
// read from the simulator's free-running counters after the job finishes —
// observation is passive, so an attached observer cannot perturb a single
// counter value.
type RunStats struct {
	// Label identifies the run.
	Label string
	// ExecCycles is the instrumented execution time in cycles.
	ExecCycles uint64
	// Served marks a point answered with the result of an identical or
	// provably equivalent point (an eviction-free smaller L3,
	// bgp.ServesLargerL3) simulated earlier in the same pass (see
	// experiments.GoldenFigures): nothing was simulated, so every counter
	// below and ExecCycles is zero.
	Served bool

	// RouteClosedForm..RouteInterp count loop executions dispatched to
	// each batched-engine route across every core.
	RouteClosedForm uint64
	RouteCoalesced  uint64
	RouteTracked    uint64
	RouteInterp     uint64

	// L1 totals across every core's private data cache.
	L1Hits, L1Misses, L1Writebacks uint64
	// L2 stream-prefetcher totals across every core.
	L2PrefetchHits, L2PrefetchMisses, L2PrefetchIssued uint64
	// L3 totals across every node's banks (zero when the L3 is disabled).
	L3Hits, L3Misses, L3Writebacks uint64
	// L3PrefetchIssued counts lines the memory-side L3 engines fetched.
	L3PrefetchIssued uint64
	// DDR line totals across every node's controllers.
	DDRReadLines, DDRWriteLines uint64

	// FFDispatches and FFCycles have no effect and read zero; kept because
	// benchmark/ compiles against them; ROADMAP item 11 deletes them.
	FFDispatches, FFCycles uint64
	// Epoch-memo cut and epoch counts for the run: cuts that replayed a
	// recorded epoch, cuts that simulated live, and the epochs of the replay
	// chain the run stored in the shared cache. FirstSights counts the
	// misses of a run whose identity had never been seen — the run left one
	// mark and recorded nothing; a replaying run's one miss is the cut where
	// its chain ended; the other misses recorded. Corrupt counts replays
	// ended by an entry that failed its integrity checksum (chain dropped,
	// epoch re-simulated, never replayed).
	EpochMemoHits, EpochMemoMisses, EpochMemoFirstSights, EpochMemoStores, EpochMemoCorrupt uint64
	// The memo's whole-machine passes: state-vector reads (with their hash)
	// and write-backs. Zero flattens on a never-seen identity and one
	// materialization per replaying run are what make the memo's cost
	// proportional to the redundancy it removes.
	EpochMemoFlattens, EpochMemoMaterializations uint64
	// ProgCacheHits/ProgCacheMisses record the run's single compile-cache
	// lookup (1/0 on a hit, 0/1 on a compile; a run with the cache disabled
	// compiles, so it reads 0/1).
	ProgCacheHits, ProgCacheMisses uint64
}

// Observer receives a run's observability events. Implementations must be
// safe for concurrent use: a sweep calls one observer from every worker.
//
// The simulation core never sees this interface — bgp.Run reads the
// machine's free-running counters after the job completes and installs
// cycle-stamped span hooks only when an observer is attached, so a nil
// observer leaves the entire pipeline untouched.
type Observer interface {
	// PhaseDone reports the wall time of one host-side phase of a run.
	PhaseDone(label string, phase Phase, wall time.Duration)
	// RunDone reports a completed run's aggregate machine statistics.
	RunDone(stats RunStats)
	// SweepEvent reports one orchestration event of a sweep.
	SweepEvent(ev SweepEvent)
	// Span reports one simulated-clock span of a running job.
	Span(sp Span)
}

// Metric names the Recorder registers. Engine-route, cache, DDR and sweep
// names are completed with the constants' documented suffixes.
const (
	// MetricRuns counts completed runs.
	MetricRuns = "sim.runs"
	// MetricRunsServed counts the completed runs that were served an
	// identical or provably equivalent point's result instead of
	// simulating (RunStats.Served).
	MetricRunsServed = "sim.runs_served"
	// MetricExecCycles totals instrumented execution cycles.
	MetricExecCycles = "sim.exec_cycles"
	// MetricSpans counts trace spans observed (whether or not a tracer
	// was attached).
	MetricSpans = "trace.spans"
	// MetricPhaseNSPrefix prefixes per-phase wall-time totals in
	// nanoseconds: phase.ns.compile, phase.ns.run, phase.ns.postproc.
	MetricPhaseNSPrefix = "phase.ns."
	// MetricPhaseHistPrefix prefixes per-phase wall-time histograms
	// (nanoseconds, power-of-two buckets).
	MetricPhaseHistPrefix = "phase.hist_ns."
	// MetricRoutePrefix prefixes engine-route loop counts:
	// engine.route.closed_form, .coalesced, .tracked, .interp.
	MetricRoutePrefix = "engine.route."
	// MetricSweepPrefix prefixes sweep-event counts: sweep.panic,
	// sweep.run_failed, sweep.run_skipped,
	// sweep.checkpoint_persist, sweep.checkpoint_restore.
	MetricSweepPrefix = "sweep."
	// MetricFFPrefix has no effect: no counter is registered under it. It is
	// kept because benchmark/ compiles against it; ROADMAP item 11 deletes
	// it.
	MetricFFPrefix = "sim.ff."
	// MetricEpochMemoPrefix prefixes epoch-memo counters:
	// sim.epochmemo.hits, sim.epochmemo.misses, sim.epochmemo.first_sight
	// (the misses of runs whose identity was new), sim.epochmemo.stores
	// (epochs of the chains stored, never marks), sim.epochmemo.corrupt
	// (replays ended by a checksum-failed entry), sim.epochmemo.flattens
	// and sim.epochmemo.materializations (whole-machine read and write
	// passes). bgpd adds two gauges of the process-wide cache's occupancy,
	// run-marks included:
	// sim.epochmemo.resident_bytes and sim.epochmemo.entries.
	MetricEpochMemoPrefix = "sim.epochmemo."
	// MetricProgCachePrefix prefixes compile-cache counters:
	// sim.progcache.hit, sim.progcache.miss.
	MetricProgCachePrefix = "sim.progcache."
)

// runCounters is the one table of per-run counters: the /metrics name of
// each and the RunStats field a completed run adds to it. NewRecorder
// registers them and RunDone feeds them, in this order.
var runCounters = []struct {
	name string
	get  func(RunStats) uint64
}{
	{MetricRunsServed, func(s RunStats) uint64 {
		if s.Served {
			return 1
		}
		return 0
	}},
	{MetricExecCycles, func(s RunStats) uint64 { return s.ExecCycles }},
	{MetricRoutePrefix + "closed_form", func(s RunStats) uint64 { return s.RouteClosedForm }},
	{MetricRoutePrefix + "coalesced", func(s RunStats) uint64 { return s.RouteCoalesced }},
	{MetricRoutePrefix + "tracked", func(s RunStats) uint64 { return s.RouteTracked }},
	{MetricRoutePrefix + "interp", func(s RunStats) uint64 { return s.RouteInterp }},
	{"cache.l1.hits", func(s RunStats) uint64 { return s.L1Hits }},
	{"cache.l1.misses", func(s RunStats) uint64 { return s.L1Misses }},
	{"cache.l1.writebacks", func(s RunStats) uint64 { return s.L1Writebacks }},
	{"cache.l2pf.hits", func(s RunStats) uint64 { return s.L2PrefetchHits }},
	{"cache.l2pf.misses", func(s RunStats) uint64 { return s.L2PrefetchMisses }},
	{"cache.l2pf.issued", func(s RunStats) uint64 { return s.L2PrefetchIssued }},
	{"cache.l3.hits", func(s RunStats) uint64 { return s.L3Hits }},
	{"cache.l3.misses", func(s RunStats) uint64 { return s.L3Misses }},
	{"cache.l3.writebacks", func(s RunStats) uint64 { return s.L3Writebacks }},
	{"cache.l3pf.issued", func(s RunStats) uint64 { return s.L3PrefetchIssued }},
	{"ddr.read_lines", func(s RunStats) uint64 { return s.DDRReadLines }},
	{"ddr.write_lines", func(s RunStats) uint64 { return s.DDRWriteLines }},
	{MetricEpochMemoPrefix + "hits", func(s RunStats) uint64 { return s.EpochMemoHits }},
	{MetricEpochMemoPrefix + "misses", func(s RunStats) uint64 { return s.EpochMemoMisses }},
	{MetricEpochMemoPrefix + "first_sight", func(s RunStats) uint64 { return s.EpochMemoFirstSights }},
	{MetricEpochMemoPrefix + "stores", func(s RunStats) uint64 { return s.EpochMemoStores }},
	{MetricEpochMemoPrefix + "corrupt", func(s RunStats) uint64 { return s.EpochMemoCorrupt }},
	{MetricEpochMemoPrefix + "flattens", func(s RunStats) uint64 { return s.EpochMemoFlattens }},
	{MetricEpochMemoPrefix + "materializations", func(s RunStats) uint64 { return s.EpochMemoMaterializations }},
	{MetricProgCachePrefix + "hit", func(s RunStats) uint64 { return s.ProgCacheHits }},
	{MetricProgCachePrefix + "miss", func(s RunStats) uint64 { return s.ProgCacheMisses }},
}

// Recorder is the standard Observer: it feeds a Registry and, when one is
// attached, a Tracer. Every cell is resolved at construction, so the
// event-handling paths are lock-free atomic updates (plus one mutex-guarded
// write per span when tracing).
type Recorder struct {
	reg    *Registry
	tracer *Tracer

	runs      *Counter
	spans     *Counter
	perRun    []*Counter // parallel to runCounters
	phaseNS   map[Phase]*Counter
	phaseHist map[Phase]*Histogram
	sweep     map[SweepEvent]*Counter
}

// NewRecorder returns a recorder over reg, tracing to tracer when non-nil.
func NewRecorder(reg *Registry, tracer *Tracer) *Recorder {
	r := &Recorder{
		reg:    reg,
		tracer: tracer,

		runs:      reg.Counter(MetricRuns),
		spans:     reg.Counter(MetricSpans),
		perRun:    make([]*Counter, len(runCounters)),
		phaseNS:   make(map[Phase]*Counter, 3),
		phaseHist: make(map[Phase]*Histogram, 3),
		sweep:     make(map[SweepEvent]*Counter, 6),
	}
	for i, c := range runCounters {
		r.perRun[i] = reg.Counter(c.name)
	}
	for _, ph := range Phases() {
		r.phaseNS[ph] = reg.Counter(MetricPhaseNSPrefix + string(ph))
		r.phaseHist[ph] = reg.Histogram(MetricPhaseHistPrefix + string(ph))
	}
	for _, ev := range SweepEvents() {
		r.sweep[ev] = reg.Counter(MetricSweepPrefix + string(ev))
	}
	return r
}

// Registry returns the recorder's registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Tracer returns the attached tracer (nil when not tracing).
func (r *Recorder) Tracer() *Tracer { return r.tracer }

// Tracing reports whether the recorder consumes simulated-clock spans (a
// tracer is attached). bgp.Run consults it before installing per-span
// hooks: a metrics-only recorder then leaves the job unhooked, keeping the
// epoch memo eligible.
func (r *Recorder) Tracing() bool { return r.tracer != nil }

// PhaseDone implements Observer.
func (r *Recorder) PhaseDone(label string, phase Phase, wall time.Duration) {
	ns := uint64(wall.Nanoseconds())
	if c, ok := r.phaseNS[phase]; ok {
		c.Add(ns)
	}
	if h, ok := r.phaseHist[phase]; ok {
		h.Observe(ns)
	}
}

// RunDone implements Observer.
func (r *Recorder) RunDone(st RunStats) {
	r.runs.Inc()
	for i, c := range runCounters {
		r.perRun[i].Add(c.get(st))
	}
}

// SweepEvent implements Observer.
func (r *Recorder) SweepEvent(ev SweepEvent) {
	if c, ok := r.sweep[ev]; ok {
		c.Inc()
	} else {
		r.reg.Counter(MetricSweepPrefix + string(ev)).Inc()
	}
}

// Span implements Observer.
func (r *Recorder) Span(sp Span) {
	r.spans.Inc()
	if r.tracer != nil {
		r.tracer.Span(sp)
	}
}
