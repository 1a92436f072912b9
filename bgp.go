// Package bgp is the public face of the Blue Gene/P performance-counter
// workload-characterization suite: a full-system simulator of the Blue
// Gene/P compute node (PPC450 cores, double-hummer SIMD FPU, L1/L2/L3/DDR2
// hierarchy, torus and collective networks, and the 256-counter Universal
// Performance Counter unit), the paper's counter-interface library
// (Initialize/Start/Stop/Finalize with per-node binary dumps), the NAS
// Parallel Benchmarks expressed as simulated workloads, an XL-compiler
// optimization model, and the post-processing tools that mine counter
// dumps into MFLOPS, DDR-traffic and instruction-mix metrics.
//
// The one-call entry point is Run:
//
//	res, err := bgp.Run(bgp.RunConfig{
//	        Benchmark: "ft",
//	        Class:     bgp.ClassA,
//	        Ranks:     32,
//	        Mode:      bgp.VNM,
//	        Opts:      bgp.Options{Level: bgp.O5, Arch440d: true},
//	})
//	fmt.Println(res.Metrics.MFLOPS, res.Metrics.SIMDShare)
//
// which boots a partition, builds and instruments the benchmark, runs it
// under the MPI runtime, and mines the per-node counter dumps. The
// subsystems are available individually under internal/ for finer control
// and are re-exported here where they form the public API.
package bgp

import (
	"fmt"
	"time"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/compiler"
	"bgpsim/internal/core"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/nas"
	"bgpsim/internal/node"
	"bgpsim/internal/obs"
	"bgpsim/internal/postproc"
	"bgpsim/internal/progcache"
	"bgpsim/internal/workload"
)

// Re-exported workload and configuration vocabulary, so that typical users
// only import this package.
type (
	// Class is a NAS problem class (S, W, A, B, C).
	Class = nas.Class
	// Options is an XL-compiler build configuration.
	Options = compiler.Options
	// Level is an XL optimization level.
	Level = compiler.Level
	// OpMode is a node operating mode (Figure 3).
	OpMode = machine.OpMode
	// Metrics are the derived paper-level quantities of a run.
	Metrics = postproc.Metrics
	// Analysis is the mined per-counter statistics of a run.
	Analysis = postproc.Analysis
	// Dump is one node's decoded counter file.
	Dump = bgpctr.Dump
	// Sampler is the periodic counter-timeline collector.
	Sampler = bgpctr.Sampler
	// Observer receives a run's observability events (phase wall times,
	// aggregate machine statistics, sweep events, simulated-clock spans).
	// See internal/obs for the standard Recorder implementation.
	Observer = obs.Observer
	// RunStats is the aggregate machine accounting reported to an
	// Observer after each run.
	RunStats = obs.RunStats
	// ProgCache is the content-addressed compile cache shared across runs
	// (see internal/progcache).
	ProgCache = progcache.Cache
	// WorkloadSpec is a decoded declarative workload specification
	// (see internal/workload): a seeded YAML schema composing per-rank
	// phases from memory-walk, FP-mix and communication primitives,
	// runnable anywhere a NAS benchmark is via RunConfig.Spec.
	WorkloadSpec = workload.Spec
)

// LoadWorkloadSpec reads and strictly decodes a YAML workload spec file.
func LoadWorkloadSpec(path string) (*WorkloadSpec, error) {
	return workload.LoadSpec(path)
}

// ParseWorkloadSpec strictly decodes a YAML workload spec from memory.
func ParseWorkloadSpec(src []byte) (*WorkloadSpec, error) {
	return workload.DecodeSpecBytes(src)
}

// NewProgCache creates a program cache holding at most capacity builds
// (capacity < 1 = unbounded), for callers who want cache population
// isolated from the process-wide default.
func NewProgCache(capacity int) *ProgCache { return progcache.New(capacity) }

// NAS problem classes.
const (
	ClassS = nas.ClassS
	ClassW = nas.ClassW
	ClassA = nas.ClassA
	ClassB = nas.ClassB
	ClassC = nas.ClassC
)

// Compiler optimization levels.
const (
	O0 = compiler.O0
	O3 = compiler.O3
	O4 = compiler.O4
	O5 = compiler.O5
)

// Node operating modes.
const (
	SMP1 = machine.SMP1
	SMP4 = machine.SMP4
	Dual = machine.Dual
	VNM  = machine.VNM
)

// ParseClass parses a problem-class letter.
func ParseClass(s string) (Class, error) { return nas.ParseClass(s) }

// ParseMode parses an operating-mode spelling like "VNM" or "SMP/1".
func ParseMode(s string) (OpMode, error) { return machine.ParseMode(s) }

// ParseOptions parses a compiler-flag spelling like "-O5 -qarch=440d".
func ParseOptions(s string) (Options, error) { return compiler.ParseOptions(s) }

// Benchmarks returns the names of the NAS benchmarks in suite order.
func Benchmarks() []string {
	all := nas.All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// RunConfig selects one instrumented benchmark run. Its fields fall in two
// groups. Identity fields say what is simulated; fingerprint (checkpoint.go)
// renders exactly these, so they alone determine a run's RunKey, its
// epoch-memo configuration key and its bgpd job id. Execution fields say how
// the host computes or observes the run; every setting of them yields
// byte-identical dumps, and none of them reaches a key, so a result cached
// or checkpointed at one setting serves every other.
// TestExecutionKnobsExcludedFromRunKey holds each field to its group.
type RunConfig struct {
	// Identity fields.

	// Benchmark is the NAS benchmark name ("mg", "ft", ...). Mutually
	// exclusive with Spec.
	Benchmark string
	// Spec, when non-nil, runs a declarative workload spec instead of a
	// registered NAS benchmark: the spec is compiled down to the same
	// kernel IR and SPMD body shape, so every execution mode and
	// accelerator applies unchanged. The spec's canonical fingerprint is
	// folded into checkpoint fingerprints (and through them RunKeys, the
	// epoch-memo configuration key and bgpd job ids), so results cached
	// under one spec can never serve another. Mutually exclusive with
	// Benchmark.
	Spec *WorkloadSpec
	// Class is the problem class.
	Class Class
	// Ranks is the requested MPI process count (SP and BT round it down
	// to a square).
	Ranks int
	// Mode is the node operating mode.
	Mode OpMode
	// Opts is the compiler build configuration.
	Opts Options
	// Nodes overrides the partition size; 0 books exactly the nodes the
	// ranks need in the given mode.
	Nodes int
	// L3Bytes overrides the shared L3 capacity per node: 0 keeps the
	// production 8 MB, a negative value boots with the L3 disabled
	// (the paper's 0 MB point). A positive value below MinL3Bytes, or
	// one above MaxL3Bytes, is an error.
	L3Bytes int
	// L2PrefetchDepth overrides the per-core L2 stream-prefetch depth:
	// 0 keeps the production depth (2 lines ahead), a negative value
	// disables prefetching — the §IX prefetch-amount study. A depth
	// above MaxPrefetchDepth is an error.
	L2PrefetchDepth int
	// L3PrefetchDepth enables the memory-side L3 prefetch engine with
	// the given depth (0 = disabled, the production configuration). A
	// depth above MaxPrefetchDepth is an error.
	L3PrefetchDepth int
	// Interpreter forces the reference per-trip interpreter instead of
	// the batched execution engine, by setting core.Params.Interpreter on
	// every core — the one selector there is. The two are bit-identical in
	// every counter and dump; the flag exists for equivalence testing and
	// for benchmarking the batched engine against its baseline.
	Interpreter bool
	// SliceCycles overrides the scheduler compute time slice (cycles a
	// rank runs between yields); 0 keeps the default. Results do not
	// depend on it beyond the documented rank interleaving.
	SliceCycles uint64
	// TimelineInterval, when nonzero, samples TimelineEvents of every
	// node each time the simulation clock advances by this many cycles;
	// the collected series are returned in Result.Timeline.
	TimelineInterval uint64
	// TimelineEvents are the event mnemonics to sample.
	TimelineEvents []string

	// Execution fields.

	// DumpDir, when non-empty, receives the per-node .bgpc counter
	// files.
	DumpDir string
	// Observer, when non-nil, receives the run's observability events:
	// per-phase wall times, simulated-clock spans while the job runs,
	// and the aggregate machine statistics on completion. Observation is
	// passive — counters are read after the job finishes — so an
	// attached observer never perturbs a counter value or dump byte,
	// and a nil observer costs nothing (obs_hooks_test pins the nil path
	// to zero allocations).
	Observer Observer
	// ProgCache overrides the compile cache consulted for this run; nil
	// uses the process-wide shared cache. Cached programs are immutable
	// and content-addressed (kernel IR, compiler flags, ISA version), so
	// a cache hit returns bit-identical programs to a fresh compilation.
	ProgCache *progcache.Cache
	// NoProgCache disables compile memoization for this run (every run
	// lowers its kernel from scratch).
	NoProgCache bool
	// NoFastForward disables epoch fast-forwarding (on by default): when
	// a rank is the only runnable rank of the job, its compute phases run
	// to completion in one dispatch instead of bounded time slices. The
	// accelerated path is bit-identical in every counter and dump (the
	// batched engine's exactness contract at a different limit); the flag
	// exists for equivalence testing and benchmarking.
	NoFastForward bool
	// NoEpochMemo disables the epoch memo (on by default): the second run
	// of a run identity in a process records its collective-to-collective
	// epochs as one replay chain, stored under the identity in a
	// process-wide cache, so later reruns of an identical configuration
	// replay recorded epochs instead of simulating them. Replay is
	// byte-identical by construction (see internal/mpi's memo layer); the
	// flag exists for equivalence testing, benchmarking, and bodies that
	// read counters mid-run. The cache's byte budget is the process's, set
	// where the cache is constructed (epochmemo.Default), never per run.
	NoEpochMemo bool
}

// ResolveWorkload is the one place a run's workload source is decided: the
// NAS registry entry named by cfg.Benchmark, or cfg.Spec presented in the
// same shape (its name, an identity RanksFor, a Build closing over the spec),
// plus the source's identity token — empty for a registry entry, whose name
// says everything, and the spec's canonical sha256 for a spec, so runs of
// distinct specs are provably distinct and runs of equal specs equal
// whichever decoded copy the caller holds. Check (and through it Run and
// bgpd's decoder), the labels and error messages, the fingerprint and
// bgprun all resolve through here. The source is non-nil and named even
// when err is set (an unknown benchmark, or both fields set), so a failed
// run can still be labelled and keyed.
func ResolveWorkload(cfg RunConfig) (src *nas.Benchmark, id string, err error) {
	if cfg.Spec == nil {
		if src, err = nas.ByName(cfg.Benchmark); err != nil {
			src = &nas.Benchmark{Name: cfg.Benchmark}
		}
		return src, "", err
	}
	spec := cfg.Spec
	src = &nas.Benchmark{
		Name:     spec.Name,
		RanksFor: func(requested int) int { return requested },
		Build:    func(c nas.Config) (*nas.App, error) { return workload.Build(spec, c) },
	}
	if cfg.Benchmark != "" {
		err = fmt.Errorf("bgp: %q and the spec %q are mutually exclusive", cfg.Benchmark, spec.Name)
		src.Name = cfg.Benchmark
	}
	return src, spec.Fingerprint(), err
}

// runName is the run's workload name for labels and error messages.
func runName(cfg RunConfig) string {
	src, _, _ := ResolveWorkload(cfg)
	return src.Name
}

// PointLabel identifies one run for diagnostics before (or without) running
// it: workload × class × mode × build, plus whichever machine overrides are
// set.
func PointLabel(cfg RunConfig) string {
	label := fmt.Sprintf("%s.%v %v %v", runName(cfg), cfg.Class, cfg.Mode, cfg.Opts)
	switch {
	case cfg.L3Bytes < 0:
		label += " l3=off"
	case cfg.L3Bytes > 0:
		label += fmt.Sprintf(" l3=%dMB", cfg.L3Bytes>>20)
	}
	if cfg.L2PrefetchDepth != 0 {
		label += fmt.Sprintf(" l2pf=%d", cfg.L2PrefetchDepth)
	}
	if cfg.L3PrefetchDepth != 0 {
		label += fmt.Sprintf(" l3pf=%d", cfg.L3PrefetchDepth)
	}
	return label
}

// Result is a completed instrumented run.
type Result struct {
	// Config echoes the run configuration (with Ranks/Nodes resolved).
	Config RunConfig
	// Label identifies the run in reports and CSV rows.
	Label string
	// Dumps are the decoded per-node counter files.
	Dumps []*Dump
	// Analysis is the cross-node mined statistics.
	Analysis *Analysis
	// Metrics are the derived whole-application metrics (set 0).
	Metrics *Metrics
	// Timeline holds the periodic counter samples when the run was
	// configured with a TimelineInterval.
	Timeline *Sampler
	// L3EvictionFree records that no L3 bank of the run ever displaced a
	// valid line, so the result answers for every larger L3 whose geometry
	// refines this one (ServesLargerL3). False means unknown: an evicting
	// run, a run without an L3, and a result restored from a checkpoint
	// record that does not carry the fact.
	L3EvictionFree bool
}

// The bounds Run puts on the machine overrides a configuration may carry;
// bgpd's callers set them over HTTP, so each is a bound on host memory and
// host time one request can claim.
const (
	// MinL3Bytes is the smallest shared L3 a node boots with: one line in
	// each of its banks.
	MinL3Bytes = node.NumL3Banks * core.LineBytes
	// MaxL3Bytes is eight times the production part; the host pays a
	// sixteenth of the simulated capacity per node.
	MaxL3Bytes = 64 << 20
	// MaxPrefetchDepth is four times the 16-line L2 prefetch buffer (the
	// §IX studies stop at 8). Every locked-stream miss walks the depth, and
	// a core allocates its proposal buffer by it.
	MaxPrefetchDepth = 64
	// MaxPartitionL3Bytes bounds PartitionL3Bytes: what bgpd's largest
	// partition, 1024 SMP/1 nodes, books at the production 8 MB. Booting
	// costs the host about a sixteenth of the simulated L3 (every set is
	// initialized), and a run that records an epoch memo twice that.
	MaxPartitionL3Bytes = 8 << 30
)

// PartitionL3Bytes is the simulated L3 a partition of nodes books under
// cfg: nodes × the per-node L3, which is the production 8 MB when
// cfg.L3Bytes is 0 and none when it is negative.
func PartitionL3Bytes(cfg RunConfig, nodes int) int64 {
	perNode := cfg.L3Bytes
	switch {
	case perNode == 0:
		perNode = node.DefaultParams().L3Bytes
	case perNode < 0:
		perNode = 0
	}
	return int64(nodes) * int64(perNode)
}

// ConfigError is a configuration Check refuses. Field is the RunConfig field
// at fault, so a caller holding another spelling of the configuration (bgpd's
// wire form) can name its own field instead.
type ConfigError struct {
	Field  string
	Reason string
}

// Error names the field and the reason.
func (e *ConfigError) Error() string { return "bgp: " + e.Field + ": " + e.Reason }

// Check is the one list of what Run refuses before compiling or booting; a
// configuration it passes builds and boots. Its errors are *ConfigErrors.
func Check(cfg RunConfig) error {
	_, _, err := admit(cfg)
	return err
}

// admit is Check, also returning the resolved workload and the partition
// size Run boots. Ranks are counted as the workload builds them
// (RanksFor), so the node count and every bound on it are Run's own.
func admit(cfg RunConfig) (src *nas.Benchmark, nodes int, err error) {
	refuse := func(field, format string, args ...any) (*nas.Benchmark, int, error) {
		return nil, 0, &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if src, _, err = ResolveWorkload(cfg); err != nil {
		return refuse("Benchmark", "%v", err)
	}
	switch {
	case cfg.Ranks <= 0:
		return refuse("Ranks", "non-positive rank count %d", cfg.Ranks)
	case cfg.Nodes < 0:
		return refuse("Nodes", "negative node count %d", cfg.Nodes)
	case cfg.L3Bytes > 0 && cfg.L3Bytes < MinL3Bytes:
		return refuse("L3Bytes", "%d is below the %d-byte minimum (a negative value boots without an L3)", cfg.L3Bytes, MinL3Bytes)
	case cfg.L3Bytes > MaxL3Bytes:
		return refuse("L3Bytes", "%d is above the %d-byte maximum", cfg.L3Bytes, MaxL3Bytes)
	case cfg.L2PrefetchDepth > MaxPrefetchDepth:
		return refuse("L2PrefetchDepth", "%d is above the maximum of %d", cfg.L2PrefetchDepth, MaxPrefetchDepth)
	case cfg.L3PrefetchDepth > MaxPrefetchDepth:
		return refuse("L3PrefetchDepth", "%d is above the maximum of %d", cfg.L3PrefetchDepth, MaxPrefetchDepth)
	}
	ranks, rpn := src.RanksFor(cfg.Ranks), cfg.Mode.RanksPerNode()
	if nodes = cfg.Nodes; nodes == 0 {
		nodes = (ranks + rpn - 1) / rpn
	} else if ranks > nodes*rpn {
		return refuse("Nodes", "%d ranks exceed capacity %d of %d nodes in %v", ranks, nodes*rpn, nodes, cfg.Mode)
	}
	if l3 := PartitionL3Bytes(cfg, nodes); l3 > MaxPartitionL3Bytes {
		return refuse("L3Bytes", "the partition's L3, Nodes × L3Bytes = %d bytes over %d nodes, is above the %d-byte maximum", l3, nodes, MaxPartitionL3Bytes)
	}
	if cfg.Spec != nil {
		if err := cfg.Spec.CheckRanks(ranks); err != nil {
			return refuse("Spec", "%v", err)
		}
	}
	return src, nodes, nil
}

// Run executes one instrumented benchmark run end to end.
func Run(cfg RunConfig) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run, also returning the machine the run booted.
func run(cfg RunConfig) (*Result, *machine.Machine, error) {
	start := time.Now()
	src, nodes, err := admit(cfg)
	if err != nil {
		return nil, nil, err
	}
	cache := cfg.ProgCache
	if cache == nil && !cfg.NoProgCache {
		cache = progcache.Default()
	}
	if cfg.NoProgCache {
		cache = nil
	}
	var progHits, progMisses uint64
	app, err := src.Build(nas.Config{
		Class: cfg.Class, Ranks: src.RanksFor(cfg.Ranks), Opts: cfg.Opts, Cache: cache,
		OnCompile: func(hit bool) {
			if hit {
				progHits++
			} else {
				progMisses++
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	label := fmt.Sprintf("%s.%s %s %v x%d", src.Name, cfg.Class, cfg.Opts, cfg.Mode, app.Ranks)
	observePhase(cfg.Observer, label, obs.PhaseCompile, start)

	start = time.Now()
	params := machine.DefaultParams()
	// Each node boots the L3 the partition bound counted for it.
	params.Node.L3Bytes = int(PartitionL3Bytes(cfg, 1))
	switch {
	case cfg.L2PrefetchDepth < 0:
		params.Node.Core.Prefetch.Depth = 0
	case cfg.L2PrefetchDepth > 0:
		params.Node.Core.Prefetch.Depth = cfg.L2PrefetchDepth
	}
	if cfg.L3PrefetchDepth > 0 {
		params.Node.L3PrefetchDepth = cfg.L3PrefetchDepth
	}
	params.Node.Core.Interpreter = cfg.Interpreter
	m := machine.New(nodes, cfg.Mode, params)

	j, err := mpi.NewJob(m, app.Ranks)
	if err != nil {
		return nil, nil, err
	}
	if cfg.SliceCycles > 0 {
		j.SetSlice(cfg.SliceCycles)
	}
	j.SetFastForward(!cfg.NoFastForward)
	if !cfg.NoEpochMemo {
		j.EnableEpochMemo(epochmemo.Default(), memoConfigKey(cfg))
	}
	if ob := cfg.Observer; ob != nil && observerTraces(ob) {
		j.OnSpan(func(cat, name string, node, rank int, start, end uint64) {
			ob.Span(obs.Span{Run: label, Cat: cat, Name: name, Node: node, Rank: rank, Start: start, End: end})
		})
	}
	var sampler *Sampler
	if cfg.TimelineInterval > 0 {
		sampler = bgpctr.NewSampler(cfg.TimelineInterval, cfg.TimelineEvents...)
		sampler.Attach(j)
	}
	dumps, err := bgpctr.Instrument(j, app.Body)
	if err != nil {
		return nil, nil, err
	}
	if cfg.DumpDir != "" {
		if err := bgpctr.WriteDumps(cfg.DumpDir, dumps); err != nil {
			return nil, nil, err
		}
	}
	observePhase(cfg.Observer, label, obs.PhaseRun, start)
	start = time.Now()
	cfg.Ranks, cfg.Nodes = app.Ranks, nodes
	res, err := newResult(cfg, label, dumps)
	if err != nil {
		return nil, nil, err
	}
	observePhase(cfg.Observer, label, obs.PhasePostproc, start)
	if cfg.Observer != nil {
		st := collectRunStats(m, label, res.Metrics.ExecCycles)
		perf := j.Perf()
		st.FFDispatches, st.FFCycles = perf.FFDispatches, perf.FFCycles
		st.EpochMemoHits, st.EpochMemoMisses, st.EpochMemoFirstSights, st.EpochMemoStores, st.EpochMemoCorrupt =
			perf.EpochMemoHits, perf.EpochMemoMisses, perf.EpochMemoFirstSights, perf.EpochMemoStores, perf.EpochMemoCorrupt
		st.EpochMemoFlattens, st.EpochMemoMaterializations = perf.EpochMemoFlattens, perf.EpochMemoMaterializations
		st.ProgCacheHits, st.ProgCacheMisses = progHits, progMisses
		cfg.Observer.RunDone(st)
	}
	res.Timeline = sampler
	res.L3EvictionFree = l3EvictionFree(m)
	return res, m, nil
}

// l3EvictionFree reports whether every node of m has an L3 and no L3 bank
// of it ever displaced a valid line. Each node counts the lines its L3
// fills displace (node.L3Evictions), a statehash-walked word, so the fact
// is read after the job, the same on every execution path, for one word
// per node.
func l3EvictionFree(m *machine.Machine) bool {
	for _, nd := range m.Nodes {
		if nd.L3[0] == nil || nd.L3Evictions != 0 {
			return false
		}
	}
	return true
}

// newResult mines a run's dumps into its Result; Run and
// CheckpointStore.Restore both build theirs here. cfg carries the resolved
// Ranks and Nodes.
func newResult(cfg RunConfig, label string, dumps []*Dump) (*Result, error) {
	analysis, err := postproc.Analyze(dumps)
	if err != nil {
		return nil, err
	}
	metrics, err := postproc.Compute(analysis, bgpctr.WholeAppSet, label)
	if err != nil {
		return nil, err
	}
	return &Result{
		Config:   cfg,
		Label:    label,
		Dumps:    dumps,
		Analysis: analysis,
		Metrics:  metrics,
	}, nil
}

// observePhase reports one phase's wall time to the observer. A nil
// observer costs one branch and zero allocations (obs_hooks_test pins
// this), so the unobserved pipeline is unchanged.
func observePhase(o Observer, label string, phase obs.Phase, start time.Time) {
	if o == nil {
		return
	}
	o.PhaseDone(label, phase, time.Since(start))
}

// observerTraces reports whether the observer consumes simulated-clock
// spans. Observers exposing Tracing() (the standard obs.Recorder) are
// consulted; unknown implementations conservatively receive spans. The
// distinction matters beyond span delivery: per-span job hooks disable the
// epoch memo, so a metrics-only recorder must not pay for spans it would
// only count.
func observerTraces(o Observer) bool {
	if t, ok := o.(interface{ Tracing() bool }); ok {
		return t.Tracing()
	}
	return true
}

// memoConfigKey is the epoch memo's configuration key: everything that
// shapes a run's execution but lives outside the simulated machine state.
// The run fingerprint renders RunConfig's identity fields and none of its
// execution fields (observers, cache handles, worker counts, the
// fast-forward/memo opt-outs themselves) — exactly the split the memo
// needs — and the ISA version is folded in
// because compiled program shapes may change across generations while the
// rest of the configuration spells the same.
func memoConfigKey(cfg RunConfig) string {
	return fmt.Sprintf("isa=%d|%s", isa.Version, fingerprint(cfg))
}

// sweepEvent reports one sweep orchestration event; nil observers cost one
// branch and zero allocations.
func sweepEvent(o Observer, ev obs.SweepEvent) {
	if o == nil {
		return
	}
	o.SweepEvent(ev)
}

// collectRunStats aggregates the machine's free-running counters after a
// job has completed: engine-route decisions per core, cache traffic per
// level, and DDR line traffic. Reading happens strictly post-run, so the
// numbers equal what the run would have produced unobserved.
func collectRunStats(m *machine.Machine, label string, execCycles uint64) RunStats {
	st := RunStats{Label: label, ExecCycles: execCycles}
	for _, nd := range m.Nodes {
		for _, c := range nd.Cores {
			st.RouteClosedForm += c.EngineRoutes[core.RouteClosedForm]
			st.RouteCoalesced += c.EngineRoutes[core.RouteCoalesced]
			st.RouteTracked += c.EngineRoutes[core.RouteTracked]
			st.RouteInterp += c.EngineRoutes[core.RouteInterp]
			st.L1Hits += c.L1.Hits
			st.L1Misses += c.L1.Misses
			st.L1Writebacks += c.L1.Writebacks
			st.L2PrefetchHits += c.L2.Hits
			st.L2PrefetchMisses += c.L2.Misses
			st.L2PrefetchIssued += c.L2.Issued
		}
		for _, bank := range nd.L3 {
			if bank == nil {
				continue
			}
			st.L3Hits += bank.Hits
			st.L3Misses += bank.Misses
			st.L3Writebacks += bank.Writebacks
		}
		st.L3PrefetchIssued += nd.L3PrefetchIssued
		for _, ctl := range nd.DDR {
			st.DDRReadLines += ctl.ReadLines
			st.DDRWriteLines += ctl.WriteLines
		}
	}
	return st
}
