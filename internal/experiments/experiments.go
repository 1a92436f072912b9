// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–VIII) from the simulator: the dynamic FP instruction
// profile (Figure 6), the SIMD-instruction and execution-time compiler
// studies (Figures 7–10), the L3-size sweep (Figure 11), and the
// virtual-node-mode versus SMP comparisons (Figures 12–14). The command
// line tools, the benchmark harness (bench_test.go) and the shape-assertion
// tests all drive this package, so the numbers they report are produced by
// one code path.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"bgpsim/internal/compiler"
	"bgpsim/internal/machine"
	"bgpsim/internal/nas"
	"bgpsim/internal/postproc"
	"bgpsim/internal/sweep"

	bgp "bgpsim"
)

// Scale selects how close to the paper's full configuration an experiment
// runs, and how the host executes it. Full matches the paper (class C, 128
// processes); Quick shrinks the problem for fast iteration while preserving
// every shape. Every figure's points are independent simulations, so they
// fan out over Workers host workers; results do not depend on Workers (see
// the determinism harness in the root package).
type Scale struct {
	// Class is the NAS problem class.
	Class nas.Class
	// Ranks is the process count (SP/BT round down to a square).
	Ranks int

	// SweepConfig is how every sweep of the scale is orchestrated: worker
	// pool, observation and checkpointing. Every figure's sweep shares the
	// one CheckpointDir, one entry per run identity (bgp.RunKey), which
	// serves every entry it holds.
	bgp.SweepConfig
	// Missing, when non-nil, makes a figure degrade gracefully instead of
	// failing: runs that fail or are absent from the checkpoint under
	// ResumeOnly leave their points marked Missing, their labels land in
	// the set for the report's partial-output diagnostics, and every
	// completed point still renders. When nil, the first such run fails
	// the figure. Neither perturbs completed runs — a recovered figure's
	// points are identical to a clean run's (the chaos harness pins this).
	Missing *MissingSet

	// Interpreter forces every run onto the reference per-trip
	// interpreter instead of the batched execution engine. Results are
	// bit-identical either way; the flag exists for the benchmark
	// harness's engine-speedup baseline.
	Interpreter bool
	// NoProgCache disables cross-run compile memoization (see
	// bgp.RunConfig.NoProgCache); figures are identical either way.
	NoProgCache bool
	// NoFastForward has no effect; kept because benchmark/ compiles against
	// it; ROADMAP item 11 deletes it.
	NoFastForward bool
	// NoEpochMemo disables the epoch memo (see
	// bgp.RunConfig.NoEpochMemo); figures are identical either way.
	NoEpochMemo bool

	// pass is set by walk for the length of one catalog walk (see runAll).
	pass *passTable
}

// MissingSet accumulates the identity of every figure point that could not
// be computed, plus the total attempted, so reports can state exactly what a
// partial rendering is missing. Points that share one run identity (one
// label) are one missing run, kept once with its point count. Setting one
// on a Scale is what lets a figure render partially; a nil set means a
// failed point fails the figure, and its methods report nothing. Methods
// are safe for concurrent use.
type MissingSet struct {
	mu      sync.Mutex
	total   int
	missing int
	points  map[string]int // label -> missing points under it
}

func (ms *MissingSet) add(label string) {
	if ms == nil {
		return
	}
	ms.mu.Lock()
	if ms.points == nil {
		ms.points = map[string]int{}
	}
	ms.points[label]++
	ms.missing++
	ms.mu.Unlock()
}

func (ms *MissingSet) addTotal(n int) {
	if ms == nil {
		return
	}
	ms.mu.Lock()
	ms.total += n
	ms.mu.Unlock()
}

// Missing returns the number of points that could not be computed.
func (ms *MissingSet) Missing() int {
	if ms == nil {
		return 0
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.missing
}

// Total returns the number of points attempted across every sweep run with
// this set.
func (ms *MissingSet) Total() int {
	if ms == nil {
		return 0
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.total
}

// Labels returns each missing run's label once, sorted.
func (ms *MissingSet) Labels() []string {
	if ms == nil {
		return nil
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.points))
	for label := range ms.points {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// Lines returns one line per missing run, sorted by label: the label,
// suffixed "(n points)" when n > 1 points share it.
func (ms *MissingSet) Lines() []string {
	out := ms.Labels()
	if len(out) == 0 {
		return out
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for i, label := range out {
		if n := ms.points[label]; n > 1 {
			out[i] += fmt.Sprintf(" (%d points)", n)
		}
	}
	return out
}

// Stamp sets the scale's per-run knobs on every configuration: the engine
// selection and the execution knobs, which live on bgp.RunConfig and nowhere
// else on the way there.
func (s Scale) Stamp(cfgs []bgp.RunConfig) {
	for i := range cfgs {
		cfgs[i].Interpreter = s.Interpreter
		cfgs[i].NoProgCache = s.NoProgCache
		cfgs[i].NoEpochMemo = s.NoEpochMemo
	}
}

// runAll fans the configurations out over the scale's worker pool and
// returns the results in cfgs order. With s.Missing set, per-run failures
// are absorbed: the failed positions come back nil, their labels land in
// s.Missing, and the error is nil so the figure renders partially. Without
// it, the sweep's error is returned.
//
// A point a finished run answers is served that result instead of running:
// a run of its identity, or one whose L3 never evicted and which differs
// only in a smaller L3 its own refines (bgp.ServesLargerL3). Inside a
// catalog walk (s.pass set) the runs of earlier calls answer too. So only
// the first occurrence of an identity runs, and a point waits a round
// while a pending point of another identity could refine into it; a point
// whose twin failed runs in its place. A served point reports one RunDone
// with Served set and nothing simulated, and credits nothing to
// s.Progress.
func runAll(s Scale, cfgs []bgp.RunConfig) ([]*bgp.Result, error) {
	s.Stamp(cfgs)
	s.Missing.addTotal(len(cfgs))
	if s.pass == nil {
		s.pass = newPass()
	}
	results := make([]*bgp.Result, len(cfgs))
	keys := make([]string, len(cfgs))
	pending := make([]int, len(cfgs))
	for i := range cfgs {
		keys[i], pending[i] = passKey(cfgs[i]), i
	}
	for len(pending) > 0 {
		// open are the keyed points no finished run answers; each stands in
		// as the eviction-free twin it may turn out to be.
		var run, open []int
		could := map[int]*bgp.Result{}
		for _, i := range pending {
			switch twin := s.pass.twin(keys[i], cfgs[i]); {
			case keys[i] == "":
				run = append(run, i)
			case twin != nil:
				results[i] = s.serve(cfgs[i], twin)
				s.pass.add(keys[i], results[i])
			default:
				open = append(open, i)
				could[i] = &bgp.Result{Config: cfgs[i], L3EvictionFree: true}
			}
		}
		var wait []int
		sent := map[string]bool{}
		for _, i := range open {
			refined := slices.ContainsFunc(open, func(j int) bool { return bgp.ServesLargerL3(could[j], cfgs[i]) })
			if sent[keys[i]] || refined {
				wait = append(wait, i)
				continue
			}
			sent[keys[i]] = true
			run = append(run, i)
		}
		if len(run) > 0 {
			sub := make([]bgp.RunConfig, len(run))
			for k, i := range run {
				sub[k] = cfgs[i]
			}
			out, err := bgp.RunAll(context.Background(), sub, s.SweepConfig)
			if err != nil {
				var se *sweep.SweepError
				if s.Missing == nil || !errors.As(err, &se) {
					return nil, err
				}
				for _, f := range se.Failed {
					s.Missing.add(bgp.PointLabel(sub[f.Index]))
				}
			}
			for k, i := range run {
				results[i] = out[k]
				if keys[i] != "" && out[k] != nil {
					s.pass.add(keys[i], out[k])
				}
			}
		}
		pending = wait
	}
	return results, nil
}

// passTable is the finished results that answer later points: one catalog
// walk's, or one runAll call's outside a walk.
type passTable struct {
	// byKey holds every result by run identity (bgp.RunKey at 0).
	byKey map[string]*bgp.Result
	// l3Free holds the eviction-free ones, in the order they finished, as
	// candidate twins of larger L3s.
	l3Free []*bgp.Result
}

func newPass() *passTable { return &passTable{byKey: map[string]*bgp.Result{}} }

// passKey is the identity cfg is served under; "" for a run that leaves
// what a result does not carry (timeline samples, dump files), which is
// never served and never answers another point.
func passKey(cfg bgp.RunConfig) string {
	if cfg.TimelineInterval > 0 || cfg.DumpDir != "" {
		return ""
	}
	return bgp.RunKey(0, cfg)
}

func (t *passTable) add(key string, res *bgp.Result) {
	if t.byKey[key] != nil {
		return
	}
	t.byKey[key] = res
	if res.L3EvictionFree {
		t.l3Free = append(t.l3Free, res)
	}
}

// twin is the finished result that answers cfg under key, or nil.
func (t *passTable) twin(key string, cfg bgp.RunConfig) *bgp.Result {
	if key == "" {
		return nil
	}
	if res := t.byKey[key]; res != nil {
		return res
	}
	for _, res := range t.l3Free {
		if bgp.ServesLargerL3(res, cfg) {
			return res
		}
	}
	return nil
}

// serve answers cfg with its twin's result: a shallow copy whose Config
// echo is cfg's own, with the twin's resolved Ranks and Nodes. The dumps,
// analysis and metrics are shared; nothing changes them after Run.
func (s Scale) serve(cfg bgp.RunConfig, twin *bgp.Result) *bgp.Result {
	res := *twin
	res.Config = cfg
	res.Config.Ranks, res.Config.Nodes = twin.Config.Ranks, twin.Config.Nodes
	ob := cfg.Observer
	if ob == nil {
		ob = s.Observer
	}
	if ob != nil {
		ob.RunDone(bgp.RunStats{Label: res.Label, Served: true})
	}
	return &res
}

// variant is one column of a study: an edit applied to the workload's base
// point.
type variant func(*bgp.RunConfig)

// asBuilt is the unedited base point.
func asBuilt(*bgp.RunConfig) {}

// variantsOf is one variant per value of the varied parameter.
func variantsOf[T any](vals []T, set func(*bgp.RunConfig, T)) []variant {
	out := make([]variant, len(vals))
	for k, v := range vals {
		out[k] = func(c *bgp.RunConfig) { set(c, v) }
	}
	return out
}

// grid is the one shape every table of the evaluation has: workloads (the
// named benchmarks, or the one spec) crossed with variants, each applied to
// the workload's base point — the scale's class and ranks in virtual-node
// mode under the best build. The points run as one sweep, workload-major,
// and come back as results[workload][variant], nil where a run went missing
// (see Scale.Missing). what names the study in the error.
func grid(s Scale, what string, names []string, spec *bgp.WorkloadSpec, variants ...variant) ([][]*bgp.Result, error) {
	if spec != nil {
		names = []string{""}
	}
	var cfgs []bgp.RunConfig
	for _, name := range names {
		for _, edit := range variants {
			cfg := bgp.RunConfig{
				Benchmark: name,
				Spec:      spec,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.VNM,
				Opts:      BestBuild(),
			}
			edit(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	flat, err := runAll(s, cfgs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	results := make([][]*bgp.Result, len(names))
	for i := range results {
		results[i], flat = flat[:len(variants)], flat[len(variants):]
	}
	return results, nil
}

// FullScale is the paper's configuration: class C with 128 processes
// (121 for SP and BT) on 32 nodes in virtual-node mode.
func FullScale() Scale { return Scale{Class: nas.ClassC, Ranks: 128} }

// MidScale runs class B with 32 processes: because the suite divides a
// fixed problem over the ranks, this keeps every per-rank footprint and
// per-node cache pressure identical to the paper's class C / 128-process
// regime at a quarter of the cost. Shapes measured here match FullScale.
func MidScale() Scale { return Scale{Class: nas.ClassB, Ranks: 32} }

// QuickScale is a reduced configuration for tests and fast runs.
func QuickScale() Scale { return Scale{Class: nas.ClassW, Ranks: 16} }

// BestBuild is the build the characterization figures use: the most
// effective configuration the compiler study identifies.
func BestBuild() compiler.Options {
	return compiler.Options{Level: compiler.O5, Arch440d: true}
}

// SuiteNames returns the benchmarks in the paper's presentation order.
func SuiteNames() []string {
	return []string{"mg", "ft", "ep", "cg", "is", "lu", "sp", "bt"}
}

// ProfileRow is one benchmark's dynamic FP instruction profile: the
// fraction of dynamic FP instructions per class (Figure 6).
type ProfileRow struct {
	// Benchmark is the benchmark name.
	Benchmark string
	// Fractions maps the eight FP class mnemonics to their share of FP
	// instructions.
	Fractions map[string]float64
	// Metrics is the run the row was computed from.
	Metrics *postproc.Metrics
	// Missing marks a row whose run failed (see Scale.Missing); Fractions and
	// Metrics are then empty/nil and the row renders as dashes.
	Missing bool
}

// FPFractions is a run's dynamic FP instruction profile: each FP class's
// share of the FP instructions counted. A run that counted none has an empty
// profile.
func FPFractions(m *postproc.Metrics) map[string]float64 {
	fractions := make(map[string]float64, len(postproc.FPClassEvents))
	var total float64
	for _, ev := range postproc.FPClassEvents {
		total += m.FPMix[ev]
	}
	for _, ev := range postproc.FPClassEvents {
		if total > 0 {
			fractions[ev] = m.FPMix[ev] / total
		}
	}
	return fractions
}

// Fig6Profile reproduces Figure 6: the dynamic floating-point instruction
// profile of the suite under the best build in virtual-node mode.
func Fig6Profile(s Scale) ([]ProfileRow, error) { return fig6Profile(SuiteNames(), s) }

func fig6Profile(benchmarks []string, s Scale) ([]ProfileRow, error) {
	results, err := grid(s, "fig6", benchmarks, nil, asBuilt)
	if err != nil {
		return nil, err
	}
	rows := make([]ProfileRow, len(benchmarks))
	for i, name := range benchmarks {
		rows[i] = ProfileRow{Benchmark: name, Missing: true}
		if res := results[i][0]; res != nil {
			rows[i] = ProfileRow{Benchmark: name, Fractions: FPFractions(res.Metrics), Metrics: res.Metrics}
		}
	}
	return rows, nil
}

// CompilerPoint is one build configuration's outcome for one benchmark.
type CompilerPoint struct {
	// Opts is the build.
	Opts compiler.Options
	// SIMDInstructions is the estimated machine-wide dynamic SIMD
	// FP instruction count (Figures 7-8 plot this).
	SIMDInstructions float64
	// SIMDShare is the SIMD fraction of FP instructions.
	SIMDShare float64
	// ExecCycles is the execution time in cycles (Figures 9-10).
	ExecCycles uint64
	// MFLOPS is the achieved rate.
	MFLOPS float64
	// Missing marks a point whose run failed (see Scale.Missing); every other
	// field except Opts is then zero.
	Missing bool
}

// CompilerConfigs returns the build configurations of the compiler study in
// presentation order: the -O -qstrict baseline, then -O3/-O4/-O5 plain and
// with -qarch=440d.
func CompilerConfigs() []compiler.Options {
	return []compiler.Options{
		{Level: compiler.O0},
		{Level: compiler.O3}, {Level: compiler.O3, Arch440d: true},
		{Level: compiler.O4}, {Level: compiler.O4, Arch440d: true},
		{Level: compiler.O5}, {Level: compiler.O5, Arch440d: true},
	}
}

// compilerPoint derives a study point from a completed run.
func compilerPoint(opts compiler.Options, m *postproc.Metrics) CompilerPoint {
	var simd float64
	for _, ev := range []string{
		"BGP_NODE_FPU_SIMD_ADD_SUB", "BGP_NODE_FPU_SIMD_MULT",
		"BGP_NODE_FPU_SIMD_DIV", "BGP_NODE_FPU_SIMD_FMA",
	} {
		simd += m.FPMix[ev]
	}
	return CompilerPoint{
		Opts:             opts,
		SIMDInstructions: simd,
		SIMDShare:        m.SIMDShare,
		ExecCycles:       m.ExecCycles,
		MFLOPS:           m.MFLOPS,
	}
}

// ExecTimeRow is one benchmark's execution-time series across builds
// (Figures 9-10).
type ExecTimeRow struct {
	// Benchmark is the benchmark name.
	Benchmark string
	// Points are the per-build outcomes in CompilerConfigs order.
	Points []CompilerPoint
}

// Fig910ExecTimes reproduces Figures 9 and 10: execution time across
// compiler builds for the named benchmarks (Figure 9 covers the first half
// of the suite, Figure 10 the second).
func Fig910ExecTimes(benchmarks []string, s Scale) ([]ExecTimeRow, error) {
	builds := CompilerConfigs()
	results, err := grid(s, "compiler sweep", benchmarks, nil,
		variantsOf(builds, func(c *bgp.RunConfig, opts compiler.Options) { c.Opts = opts })...)
	if err != nil {
		return nil, err
	}
	rows := make([]ExecTimeRow, len(benchmarks))
	for i, name := range benchmarks {
		rows[i] = ExecTimeRow{Benchmark: name, Points: make([]CompilerPoint, len(builds))}
		for k, opts := range builds {
			rows[i].Points[k] = CompilerPoint{Opts: opts, Missing: true}
			if res := results[i][k]; res != nil {
				rows[i].Points[k] = compilerPoint(opts, res.Metrics)
			}
		}
	}
	return rows, nil
}

// L3Sizes returns the L3 sweep points of Figure 11 in bytes: 0 (no L3)
// through 8 MB in 2 MB steps.
func L3Sizes() []int {
	return []int{0, 2 << 20, 4 << 20, 6 << 20, 8 << 20}
}

// L3Point is one benchmark × L3-size outcome of Figure 11.
type L3Point struct {
	// L3Bytes is the booted L3 capacity (0 = disabled).
	L3Bytes int
	// DDRTrafficBytes is the machine-wide L3–DDR traffic.
	DDRTrafficBytes uint64
	// MissFraction is the fraction of L3 references that missed
	// (0 when the L3 is disabled).
	MissFraction float64
	// Missing marks a point whose run failed (see Scale.Missing).
	Missing bool
}

// L3Row is one benchmark's Figure 11 series.
type L3Row struct {
	// Benchmark is the benchmark name.
	Benchmark string
	// Points are the per-size outcomes in L3Sizes order.
	Points []L3Point
}

// Fig11L3Sweep reproduces Figure 11: DDR traffic as the L3 grows from 0 to
// 8 MB. The paper boots one process per node (SMP/1) so the per-node
// footprint is one rank's working set.
func Fig11L3Sweep(benchmarks []string, s Scale) ([]L3Row, error) {
	sizes := L3Sizes()
	results, err := grid(s, "fig11", benchmarks, nil,
		variantsOf(sizes, func(c *bgp.RunConfig, l3 int) {
			c.Mode = machine.SMP1
			c.L3Bytes = l3
			if l3 == 0 {
				c.L3Bytes = -1
			}
		})...)
	if err != nil {
		return nil, err
	}
	rows := make([]L3Row, len(benchmarks))
	for i, name := range benchmarks {
		rows[i] = L3Row{Benchmark: name, Points: make([]L3Point, len(sizes))}
		for k, l3 := range sizes {
			rows[i].Points[k] = L3Point{L3Bytes: l3, Missing: true}
			if res := results[i][k]; res != nil {
				rows[i].Points[k] = L3Point{
					L3Bytes:         l3,
					DDRTrafficBytes: res.Metrics.DDRTrafficBytes,
					MissFraction:    res.Metrics.L3MissRate,
				}
			}
		}
	}
	return rows, nil
}

// ModeRow is one benchmark's virtual-node-mode versus SMP/1 comparison —
// the data behind Figures 12, 13 and 14.
type ModeRow struct {
	// Benchmark is the benchmark name.
	Benchmark string

	// VNM and SMP are the two runs' metrics: the same process count on
	// quarter the nodes (VNM) versus one process per node with the L3
	// reduced to 2 MB for per-process fairness (the paper's §VIII
	// svchost boot option).
	VNM, SMP *postproc.Metrics

	// TrafficRatio is per-node DDR traffic of VNM over SMP/1
	// (Figure 12; ≈3× on average, >4× for FT and IS).
	TrafficRatio float64
	// SlowdownPct is the per-node execution-time increase of VNM over
	// SMP/1 in percent (Figure 13; ≈30% on average).
	SlowdownPct float64
	// MFLOPSPerChipGain is delivered MFLOPS per chip of VNM over SMP/1
	// (Figure 14; ≈2.5× on average).
	MFLOPSPerChipGain float64
	// Missing marks a row where either run failed (see Scale.Missing); the
	// ratios are then zero and the row is excluded from the means.
	Missing bool
}

// SMPFairL3Bytes is the reduced L3 capacity the paper boots SMP/1 nodes
// with for the Figures 12-14 comparison.
const SMPFairL3Bytes = 2 << 20

// Fig121314Modes reproduces the §VIII study: the suite run with the same
// process count in virtual-node mode (ranks/4 nodes, full 8 MB L3) and in
// SMP/1 mode (one rank per node, 2 MB L3).
func Fig121314Modes(benchmarks []string, s Scale) ([]ModeRow, error) {
	results, err := grid(s, "fig12-14", benchmarks, nil, asBuilt, func(c *bgp.RunConfig) {
		c.Mode = machine.SMP1
		c.L3Bytes = SMPFairL3Bytes
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ModeRow, len(benchmarks))
	for i, name := range benchmarks {
		vnm, smp := metricsOf(results[i][0]), metricsOf(results[i][1])
		row := ModeRow{Benchmark: name, VNM: vnm, SMP: smp, Missing: vnm == nil || smp == nil}
		if !row.Missing {
			if smp.DDRTrafficBytes > 0 {
				perNodeVNM := float64(vnm.DDRTrafficBytes) / float64(vnm.Nodes)
				perNodeSMP := float64(smp.DDRTrafficBytes) / float64(smp.Nodes)
				row.TrafficRatio = perNodeVNM / perNodeSMP
			}
			if smp.ExecCycles > 0 {
				row.SlowdownPct = 100 * (float64(vnm.ExecCycles)/float64(smp.ExecCycles) - 1)
			}
			if smp.MFLOPSPerChip > 0 {
				row.MFLOPSPerChipGain = vnm.MFLOPSPerChip / smp.MFLOPSPerChip
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// metricsOf is a run's metrics, nil for a missing run.
func metricsOf(res *bgp.Result) *postproc.Metrics {
	if res == nil {
		return nil
	}
	return res.Metrics
}

// Mean returns the arithmetic mean of a float series (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
