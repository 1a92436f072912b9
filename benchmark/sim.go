package main

// The simulation workloads' program under test: the benchmark binary
// re-executed in child mode, so that "cold" means a fresh OS process with
// an empty compile cache and an empty epoch memo. The child regenerates
// figures through the same exported calls bgpreport and the golden tests
// use, and prints one report on its standard output.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/experiments"
	"bgpsim/internal/machine"
	"bgpsim/internal/obs"
	"bgpsim/internal/postproc"
	"bgpsim/internal/sweep"
)

// Paths the benchmark reads, relative to the root of the checkout.
const (
	goldenDir = "testdata/golden"
	hplPath   = "specs/hpl.yaml"
	haloPath  = "benchmark/specs/halo.yaml"
)

// childSpec tells a child what to simulate.
type childSpec struct {
	// Kind is "figs" (the nine golden figures plus the HPL
	// characterization), "mid" (the paper-regime suite) or "fig06" (the
	// Figure 6 point set alone, for the ablation ratios).
	Kind string `json:"kind"`
	// Mid selects MidScale (B/32) instead of QuickScale (W/16).
	Mid bool `json:"mid,omitempty"`
	// WarmUp runs one discarded pass first, reported with Cold set.
	WarmUp bool `json:"warm_up,omitempty"`
	// MinPasses and Seconds bound the timed passes: at least MinPasses,
	// then more until Seconds have gone by.
	MinPasses int     `json:"min_passes"`
	Seconds   float64 `json:"seconds,omitempty"`
	// Trace is "" (no pass traced), "all" or "alternate" (odd passes).
	Trace string `json:"trace,omitempty"`
	// The ablation knobs of experiments.Scale.
	NoEpochMemo   bool `json:"no_epoch_memo,omitempty"`
	NoFastForward bool `json:"no_fast_forward,omitempty"`
	Interpreter   bool `json:"interpreter,omitempty"`
}

// counts are the per-layer sums of one traced repetition: host time per
// bgp.Run phase and the simulated event totals of obs.RunStats. The
// simulation workloads fill it from the benchmark's Observer, bgpd_mix from
// a /metrics scrape.
type counts struct {
	Runs                                                       uint64
	CompileNS, RunNS, PostprocNS                               uint64
	ExecCycles                                                 uint64
	RouteClosedForm, RouteCoalesced, RouteTracked, RouteInterp uint64
	L1Accesses, L3Accesses, DDRLines                           uint64
	FFDispatches, FFCycles                                     uint64
	MemoHits, MemoMisses, MemoStores                           uint64
	ProgHits, ProgMisses                                       uint64
	// RunNSByKernel splits RunNS by the label's kernel name.
	RunNSByKernel map[string]uint64 `json:",omitempty"`
}

// passReport is one repetition as the child saw it.
type passReport struct {
	Cold      bool   `json:"cold,omitempty"`
	Traced    bool   `json:"traced,omitempty"`
	WallNS    int64  `json:"wall_ns"`
	CPUNS     int64  `json:"cpu_ns"`
	SimCycles uint64 `json:"sim_cycles"`
	// Tables are the golden-shaped tables of a figs pass.
	Tables map[string][][]string `json:"tables,omitempty"`
	// Points are the per-point checks of a mid pass, in sweep order.
	Points []pointCheck `json:"points,omitempty"`
	// Digest is a sha256 over everything simulated: the encoded dumps of
	// every point (mid) or the canonical CSV of every table (figs).
	Digest string `json:"digest"`
	// The rest is recorded in traced passes only.
	Counts *counts `json:"counts,omitempty"`
	// SweepWallNS and SweepElapsedNS are sweep.Progress's summed per-run
	// wall time and its elapsed time.
	SweepWallNS    int64  `json:"sweep_wall_ns,omitempty"`
	SweepElapsedNS int64  `json:"sweep_elapsed_ns,omitempty"`
	Spans          []span `json:"spans,omitempty"`
}

// pointCheck is one simulated point's correctness evidence.
type pointCheck struct {
	Label      string   `json:"label"`
	Digest     string   `json:"digest"`
	Violations []string `json:"violations,omitempty"`
}

// childReport is what a child prints.
type childReport struct {
	Passes []passReport `json:"passes"`
}

// layerObserver is the benchmark's bgp.Observer. It sums phase times and
// run statistics, and stamps the time at which given numbers of runs have
// completed, which is how the sweeps inside GoldenFigures are bracketed
// from outside.
type layerObserver struct {
	mu     sync.Mutex
	c      counts
	marks  []uint64 // cumulative run counts to stamp, ascending
	stamps []time.Time
}

func newLayerObserver(marks ...uint64) *layerObserver {
	return &layerObserver{c: counts{RunNSByKernel: map[string]uint64{}}, marks: marks}
}

// Tracing tells bgp.Run that this observer consumes no simulated-clock
// spans. Without it Run would install span hooks, force the serial
// scheduler and disable the epoch memo, and the traced pass would measure
// a different program.
func (o *layerObserver) Tracing() bool { return false }

func (o *layerObserver) PhaseDone(label string, phase obs.Phase, wall time.Duration) {
	ns := uint64(wall.Nanoseconds())
	o.mu.Lock()
	defer o.mu.Unlock()
	switch phase {
	case obs.PhaseCompile:
		o.c.CompileNS += ns
	case obs.PhaseRun:
		o.c.RunNS += ns
		kernel, _, _ := strings.Cut(label, ".")
		o.c.RunNSByKernel[kernel] += ns
	case obs.PhasePostproc:
		o.c.PostprocNS += ns
	}
}

func (o *layerObserver) RunDone(st obs.RunStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := &o.c
	c.Runs++
	c.ExecCycles += st.ExecCycles
	c.RouteClosedForm += st.RouteClosedForm
	c.RouteCoalesced += st.RouteCoalesced
	c.RouteTracked += st.RouteTracked
	c.RouteInterp += st.RouteInterp
	c.L1Accesses += st.L1Hits + st.L1Misses
	c.L3Accesses += st.L3Hits + st.L3Misses
	c.DDRLines += st.DDRReadLines + st.DDRWriteLines
	c.FFDispatches += st.FFDispatches
	c.FFCycles += st.FFCycles
	c.MemoHits += st.EpochMemoHits
	c.MemoMisses += st.EpochMemoMisses
	c.MemoStores += st.EpochMemoStores
	c.ProgHits += st.ProgCacheHits
	c.ProgMisses += st.ProgCacheMisses
	if len(o.stamps) < len(o.marks) && c.Runs == o.marks[len(o.stamps)] {
		o.stamps = append(o.stamps, time.Now())
	}
}

func (o *layerObserver) SweepEvent(obs.SweepEvent) {}
func (o *layerObserver) Span(obs.Span)             {}

// childMain runs a child and returns its exit code.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	rep, err := runChildSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

func runChildSpec(spec childSpec) (*childReport, error) {
	scale := experiments.QuickScale()
	if spec.Mid {
		scale = experiments.MidScale()
	}
	scale.NoEpochMemo = spec.NoEpochMemo
	scale.NoFastForward = spec.NoFastForward
	scale.Interpreter = spec.Interpreter

	var hpl, halo *bgp.WorkloadSpec
	var err error
	if spec.Kind != "fig06" {
		if hpl, err = bgp.LoadWorkloadSpec(hplPath); err != nil {
			return nil, err
		}
	}
	if spec.Kind == "mid" {
		if halo, err = bgp.LoadWorkloadSpec(haloPath); err != nil {
			return nil, err
		}
	}

	rep := &childReport{}
	one := func(index int, cold, traced bool) error {
		p, err := runPass(spec.Kind, scale, hpl, halo, traced, index)
		if err != nil {
			return err
		}
		p.Cold = cold
		rep.Passes = append(rep.Passes, p)
		return nil
	}
	if spec.WarmUp {
		if err := one(-1, true, spec.Trace != ""); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; i < spec.MinPasses || time.Since(start).Seconds() < spec.Seconds; i++ {
		traced := spec.Trace == "all" || (spec.Trace == "alternate" && i%2 == 1)
		if err := one(i, !spec.WarmUp && i == 0, traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// figureSweep is one of the sweeps GoldenFigures runs: the span it is
// reported under and the number of points it simulates.
type figureSweep struct {
	span   string
	points uint64
}

// figureSweeps lists GoldenFigures' sweeps in its order.
func figureSweeps() []figureSweep {
	suite := uint64(len(experiments.SuiteNames()))
	return []figureSweep{
		{"experiments.fig06_ms", suite},
		{"experiments.fig07_10_ms", suite * uint64(len(experiments.CompilerConfigs()))},
		{"experiments.fig11_ms", suite * uint64(len(experiments.L3Sizes()))},
		{"experiments.fig12_14_ms", suite * 2},
	}
}

// runPass executes one repetition in this process.
func runPass(kind string, scale experiments.Scale, hpl, halo *bgp.WorkloadSpec, traced bool, index int) (passReport, error) {
	p := passReport{Traced: traced}
	progress := &sweep.Progress{}
	scale.Progress = progress
	var ob *layerObserver
	var log spanLog
	sweeps := figureSweeps()
	if traced {
		// Stamp the end of every sweep of GoldenFigures but the last,
		// which ends when GoldenFigures returns.
		var marks []uint64
		var done uint64
		for _, sw := range sweeps[:len(sweeps)-1] {
			done += sw.points
			marks = append(marks, done)
		}
		ob = newLayerObserver(marks...)
		scale.Observer = ob
	}
	// child records one call into a layer as a child of the repetition's
	// span, which is span 0; the layer is the name's prefix.
	child := func(name string, t0, t1 time.Time) {
		if traced {
			layer, _, _ := strings.Cut(name, ".")
			log.add(name, layer, t0, t1, 0, index)
		}
	}
	bracket := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		child(name, t0, time.Now())
		return err
	}

	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return p, err
	}
	start := time.Now()
	if traced {
		log.add(kind, "benchmark", start, start, -1, index) // end patched below
	}
	hash := sha256.New()
	switch kind {
	case "figs":
		tables, err := experiments.GoldenFigures(scale)
		if err != nil {
			return p, err
		}
		goldenEnd := time.Now()
		if err := bracket("experiments.hpl_ms", func() error {
			pts, err := experiments.SpecCharacterization(hpl, scale)
			if err == nil {
				tables[hpl.Name] = experiments.GoldenSpec(pts)
			}
			return err
		}); err != nil {
			return p, err
		}
		if traced {
			if len(ob.stamps) != len(sweeps)-1 {
				return p, fmt.Errorf("GoldenFigures ran %d points, not the sweeps figureSweeps expects", ob.c.Runs)
			}
			edges := append(append([]time.Time{start}, ob.stamps...), goldenEnd)
			for i, sw := range sweeps {
				child(sw.span, edges[i], edges[i+1])
			}
		}
		p.Tables = tables
		hash.Write(tablesCSV(tables))
	case "fig06":
		if err := bracket("experiments.fig06_ms", func() error {
			_, err := experiments.Fig6Profile(scale)
			return err
		}); err != nil {
			return p, err
		}
	case "mid":
		for _, g := range midGroups(scale, hpl, halo) {
			var results []*bgp.Result
			if err := bracket(g.span, func() (err error) {
				results, err = bgp.RunAll(context.Background(), g.cfgs, bgp.SweepConfig{
					Progress: progress, Observer: scale.Observer,
				})
				return err
			}); err != nil {
				return p, err
			}
			for _, res := range results {
				pc, err := checkPoint(res)
				if err != nil {
					return p, err
				}
				p.Points = append(p.Points, pc)
				hash.Write([]byte(pc.Digest))
			}
		}
	default:
		return p, fmt.Errorf("unknown child kind %q", kind)
	}
	end := time.Now()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return p, err
	}
	p.WallNS = end.Sub(start).Nanoseconds()
	p.CPUNS = cpuNS(&ru1) - cpuNS(&ru0)
	snap := progress.Snapshot()
	p.SimCycles = snap.SimCycles
	p.Digest = hex.EncodeToString(hash.Sum(nil))
	if traced {
		log.spans[0].EndNS = end.UnixNano()
		p.Spans = log.spans
		p.Counts = &ob.c
		p.SweepWallNS = snap.Wall.Nanoseconds()
		p.SweepElapsedNS = snap.Elapsed.Nanoseconds()
	}
	return p, nil
}

func cpuNS(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// midGroup is one sweep of the paper-regime suite.
type midGroup struct {
	span string
	cfgs []bgp.RunConfig
}

// midGroups builds suite_mid_cold's thirteen points: the eight
// configurations experiments.Fig6Profile runs, the four
// experiments.SpecCharacterization runs for the HPL proxy, and one
// virtual-node-mode run of the halo spec. They go through bgp.RunAll
// directly because the experiments calls return derived rows only, and the
// correctness gate needs every point's dumps.
func midGroups(s experiments.Scale, hpl, halo *bgp.WorkloadSpec) []midGroup {
	point := func(mode machine.OpMode) bgp.RunConfig {
		return bgp.RunConfig{Class: s.Class, Ranks: s.Ranks, Mode: mode, Opts: experiments.BestBuild(),
			Interpreter: s.Interpreter, NoEpochMemo: s.NoEpochMemo, NoFastForward: s.NoFastForward}
	}
	var fig06, hplCfgs []bgp.RunConfig
	for _, name := range experiments.SuiteNames() {
		cfg := point(machine.VNM)
		cfg.Benchmark = name
		fig06 = append(fig06, cfg)
	}
	for _, mode := range experiments.SpecModes() {
		cfg := point(mode)
		cfg.Spec = hpl
		hplCfgs = append(hplCfgs, cfg)
	}
	haloCfg := point(machine.VNM)
	haloCfg.Spec = halo
	return []midGroup{
		{"experiments.fig06_ms", fig06},
		{"experiments.hpl_ms", hplCfgs},
		{"bgp.halo", []bgp.RunConfig{haloCfg}},
	}
}

// checkPoint hashes a result's encoded dumps and runs the counter
// cross-checks over its analysis.
func checkPoint(res *bgp.Result) (pointCheck, error) {
	pc := pointCheck{Label: res.Label}
	h := sha256.New()
	for _, d := range res.Dumps {
		if err := d.Encode(h); err != nil {
			return pc, fmt.Errorf("encoding dump of %s: %w", res.Label, err)
		}
	}
	pc.Digest = hex.EncodeToString(h.Sum(nil))
	for _, v := range postproc.Violations(postproc.CrossCheck(res.Analysis)) {
		pc.Violations = append(pc.Violations, fmt.Sprintf("set %d %s: %s", v.Set, v.Name, v.Detail))
	}
	return pc, nil
}

// tablesCSV renders tables in name order as one CSV stream.
func tablesCSV(tables map[string][][]string) []byte {
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for _, n := range names {
		w.Write([]string{"#", n})
		w.WriteAll(tables[n])
	}
	w.Flush()
	return buf.Bytes()
}

// loadGoldens reads the committed golden tables the figs workloads are
// compared with: the nine figures and the HPL characterization.
func loadGoldens(hplName string) (map[string][][]string, error) {
	goldens := make(map[string][][]string)
	for _, name := range append(experiments.GoldenFigureNames(), hplName) {
		f, err := os.Open(filepath.Join(goldenDir, name+".csv"))
		if err != nil {
			return nil, err
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		goldens[name] = rows
	}
	return goldens, nil
}

// diffTable compares one regenerated table with its golden cell by cell
// and returns a line for every cell, row or column that differs.
func diffTable(name string, want, got [][]string) []string {
	var diffs []string
	if len(got) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%s: %d rows, golden has %d", name, len(got), len(want)))
	}
	for r := 0; r < len(want) && r < len(got); r++ {
		if len(got[r]) != len(want[r]) {
			diffs = append(diffs, fmt.Sprintf("%s row %d: %d columns, golden has %d", name, r, len(got[r]), len(want[r])))
		}
		for c := 0; c < len(want[r]) && c < len(got[r]); c++ {
			if got[r][c] != want[r][c] {
				diffs = append(diffs, fmt.Sprintf("%s row %d col %d: got %q, golden %q", name, r, c, got[r][c], want[r][c]))
			}
		}
	}
	return diffs
}
