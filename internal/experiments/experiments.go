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
	"sort"
	"sync"
	"time"

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
// fan out over Jobs host workers; results do not depend on Jobs (see the
// determinism harness in the root package).
type Scale struct {
	// Class is the NAS problem class.
	Class nas.Class
	// Ranks is the process count (SP/BT round down to a square).
	Ranks int
	// Jobs bounds the host worker pool the sweep runs on; values below 1
	// mean one worker per host core (GOMAXPROCS).
	Jobs int
	// Progress, when non-nil, observes the sweep's runs and aggregates
	// simulated-cycle throughput.
	Progress *sweep.Progress
	// Interpreter forces every run onto the reference per-trip
	// interpreter instead of the batched execution engine. Results are
	// bit-identical either way; the flag exists for the benchmark
	// harness's engine-speedup baseline.
	Interpreter bool
	// Observer, when non-nil, receives every run's observability events
	// and the sweep's orchestration events (see bgp.SweepConfig.Observer).
	// Attaching one never changes a figure's numbers.
	Observer bgp.Observer

	// KeepGoing degrades gracefully instead of failing the whole figure:
	// runs that fail (after retries) leave their points marked Missing,
	// recorded in Missing, and every completed point still renders. None
	// of this perturbs completed runs — a recovered figure's points are
	// identical to a clean run's (the chaos harness pins this).
	KeepGoing bool
	// Retries is the per-run retry budget for transient failures.
	Retries int
	// RunTimeout, when positive, bounds each run attempt.
	RunTimeout time.Duration
	// CheckpointDir, when non-empty, persists each completed run there so
	// an interrupted figure can resume. Every figure's sweep shares the
	// directory; keys never collide (see bgp.RunKey).
	CheckpointDir string
	// Resume restores validated checkpoint entries instead of re-running.
	Resume bool
	// ResumeOnly renders from the checkpoint alone: missing runs become
	// Missing points (with KeepGoing) rather than executing.
	ResumeOnly bool
	// Missing, when non-nil, collects the labels of points that failed or
	// were absent from the checkpoint, for the report's partial-output
	// diagnostics.
	Missing *MissingSet

	// NoProgCache disables cross-run compile memoization (see
	// bgp.RunConfig.NoProgCache); figures are identical either way.
	NoProgCache bool
	// NoFastForward disables epoch fast-forwarding (see
	// bgp.RunConfig.NoFastForward); figures are identical either way.
	NoFastForward bool
	// NoEpochMemo disables the epoch memo (see
	// bgp.RunConfig.NoEpochMemo); figures are identical either way.
	NoEpochMemo bool
}

// MissingSet accumulates the identity of every figure point that could not
// be computed, plus the total attempted, so reports can state exactly what a
// partial rendering is missing. A nil *MissingSet is inert; methods are safe
// for concurrent use.
type MissingSet struct {
	mu     sync.Mutex
	total  int
	labels []string
}

func (ms *MissingSet) add(label string) {
	if ms == nil {
		return
	}
	ms.mu.Lock()
	ms.labels = append(ms.labels, label)
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
	return len(ms.labels)
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

// Labels returns the missing points' labels, sorted.
func (ms *MissingSet) Labels() []string {
	if ms == nil {
		return nil
	}
	ms.mu.Lock()
	out := append([]string(nil), ms.labels...)
	ms.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stamp sets the scale's per-run knobs on every configuration: the engine
// selection and the execution knobs, which live on bgp.RunConfig and nowhere
// else on the way there.
func (s Scale) Stamp(cfgs []bgp.RunConfig) {
	for i := range cfgs {
		cfgs[i].Interpreter = s.Interpreter
		cfgs[i].NoProgCache = s.NoProgCache
		cfgs[i].NoFastForward = s.NoFastForward
		cfgs[i].NoEpochMemo = s.NoEpochMemo
	}
}

// SweepConfig is the sweep orchestration the scale selects: worker pool,
// observation, resilience and checkpointing.
func (s Scale) SweepConfig() bgp.SweepConfig {
	return bgp.SweepConfig{
		Workers:         s.Jobs,
		Progress:        s.Progress,
		Observer:        s.Observer,
		Retries:         s.Retries,
		RunTimeout:      s.RunTimeout,
		ContinueOnError: s.KeepGoing,
		CheckpointDir:   s.CheckpointDir,
		Resume:          s.Resume,
		ResumeOnly:      s.ResumeOnly,
	}
}

// runAll fans the configurations out over the scale's worker pool and
// returns the results in cfgs order. With KeepGoing, per-run failures are
// absorbed: the failed positions come back nil, their labels land in
// s.Missing, and the error is nil so the figure renders partially. A dead
// context (interrupt) still fails the figure.
func runAll(s Scale, cfgs []bgp.RunConfig) ([]*bgp.Result, error) {
	s.Stamp(cfgs)
	s.Missing.addTotal(len(cfgs))
	results, err := bgp.RunAll(context.Background(), cfgs, s.SweepConfig())
	if err != nil {
		var se *sweep.SweepError
		if s.KeepGoing && errors.As(err, &se) && se.Cause == nil {
			for _, f := range se.Failed {
				s.Missing.add(bgp.PointLabel(cfgs[f.Index]))
			}
			return results, nil
		}
		return nil, err
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
	// Missing marks a row whose run failed under KeepGoing; Fractions and
	// Metrics are then empty/nil and the row renders as dashes.
	Missing bool
}

// Fig6Profile reproduces Figure 6: the dynamic floating-point instruction
// profile of the suite under the best build in virtual-node mode.
func Fig6Profile(s Scale) ([]ProfileRow, error) {
	names := SuiteNames()
	cfgs := make([]bgp.RunConfig, len(names))
	for i, name := range names {
		cfgs[i] = bgp.RunConfig{
			Benchmark: name,
			Class:     s.Class,
			Ranks:     s.Ranks,
			Mode:      machine.VNM,
			Opts:      BestBuild(),
		}
	}
	results, err := runAll(s, cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	rows := make([]ProfileRow, 0, len(names))
	for i, res := range results {
		if res == nil {
			rows = append(rows, ProfileRow{Benchmark: names[i], Missing: true})
			continue
		}
		row := ProfileRow{
			Benchmark: names[i],
			Fractions: make(map[string]float64, len(postproc.FPClassEvents)),
			Metrics:   res.Metrics,
		}
		var total float64
		for _, ev := range postproc.FPClassEvents {
			total += res.Metrics.FPMix[ev]
		}
		for _, ev := range postproc.FPClassEvents {
			if total > 0 {
				row.Fractions[ev] = res.Metrics.FPMix[ev] / total
			}
		}
		rows = append(rows, row)
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
	// Missing marks a point whose run failed under KeepGoing; every other
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

// CompilerSweep runs one benchmark across the compiler study's builds
// (Figures 7-10 are slices of its output).
func CompilerSweep(benchmark string, s Scale) ([]CompilerPoint, error) {
	rows, err := Fig910ExecTimes([]string{benchmark}, s)
	if err != nil {
		return nil, err
	}
	return rows[0].Points, nil
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
	cfgs := make([]bgp.RunConfig, 0, len(benchmarks)*len(builds))
	for _, name := range benchmarks {
		for _, opts := range builds {
			cfgs = append(cfgs, bgp.RunConfig{
				Benchmark: name,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.VNM,
				Opts:      opts,
			})
		}
	}
	results, err := runAll(s, cfgs)
	if err != nil {
		return nil, fmt.Errorf("compiler sweep: %w", err)
	}
	rows := make([]ExecTimeRow, 0, len(benchmarks))
	for i, name := range benchmarks {
		pts := make([]CompilerPoint, len(builds))
		for k, opts := range builds {
			if res := results[i*len(builds)+k]; res != nil {
				pts[k] = compilerPoint(opts, res.Metrics)
			} else {
				pts[k] = CompilerPoint{Opts: opts, Missing: true}
			}
		}
		rows = append(rows, ExecTimeRow{Benchmark: name, Points: pts})
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
	// Missing marks a point whose run failed under KeepGoing.
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
	cfgs := make([]bgp.RunConfig, 0, len(benchmarks)*len(sizes))
	for _, name := range benchmarks {
		for _, l3 := range sizes {
			cfg := bgp.RunConfig{
				Benchmark: name,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.SMP1,
				Opts:      BestBuild(),
			}
			if l3 == 0 {
				cfg.L3Bytes = -1
			} else {
				cfg.L3Bytes = l3
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(s, cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	rows := make([]L3Row, 0, len(benchmarks))
	for i, name := range benchmarks {
		row := L3Row{Benchmark: name, Points: make([]L3Point, len(sizes))}
		for k, l3 := range sizes {
			res := results[i*len(sizes)+k]
			if res == nil {
				row.Points[k] = L3Point{L3Bytes: l3, Missing: true}
				continue
			}
			m := res.Metrics
			row.Points[k] = L3Point{
				L3Bytes:         l3,
				DDRTrafficBytes: m.DDRTrafficBytes,
				MissFraction:    m.L3MissRate,
			}
		}
		rows = append(rows, row)
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
	// Missing marks a row where either run failed under KeepGoing; the
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
	cfgs := make([]bgp.RunConfig, 0, 2*len(benchmarks))
	for _, name := range benchmarks {
		cfgs = append(cfgs,
			bgp.RunConfig{
				Benchmark: name,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.VNM,
				Opts:      BestBuild(),
			},
			bgp.RunConfig{
				Benchmark: name,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.SMP1,
				Opts:      BestBuild(),
				L3Bytes:   SMPFairL3Bytes,
			})
	}
	results, err := runAll(s, cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig12-14: %w", err)
	}
	rows := make([]ModeRow, 0, len(benchmarks))
	for i, name := range benchmarks {
		vnm, smp := results[2*i], results[2*i+1]
		if vnm == nil || smp == nil {
			row := ModeRow{Benchmark: name, Missing: true}
			if vnm != nil {
				row.VNM = vnm.Metrics
			}
			if smp != nil {
				row.SMP = smp.Metrics
			}
			rows = append(rows, row)
			continue
		}
		row := ModeRow{Benchmark: name, VNM: vnm.Metrics, SMP: smp.Metrics}
		vnmNodes := float64(vnm.Metrics.Nodes)
		smpNodes := float64(smp.Metrics.Nodes)
		if smp.Metrics.DDRTrafficBytes > 0 {
			perNodeVNM := float64(vnm.Metrics.DDRTrafficBytes) / vnmNodes
			perNodeSMP := float64(smp.Metrics.DDRTrafficBytes) / smpNodes
			row.TrafficRatio = perNodeVNM / perNodeSMP
		}
		if smp.Metrics.ExecCycles > 0 {
			row.SlowdownPct = 100 * (float64(vnm.Metrics.ExecCycles)/float64(smp.Metrics.ExecCycles) - 1)
		}
		if smp.Metrics.MFLOPSPerChip > 0 {
			row.MFLOPSPerChipGain = vnm.Metrics.MFLOPSPerChip / smp.Metrics.MFLOPSPerChip
		}
		rows = append(rows, row)
	}
	return rows, nil
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
