// Command benchmark is the repository's benchmark. It runs four named
// workloads — figs_cold, figs_warm, suite_mid_cold, bgpd_mix — untraced for
// the end-to-end metrics and traced for the per-layer metrics, checks every
// output for correctness, and prints every metric by name and unit. See
// README.md beside this file for the workloads, the glossary and how the
// layer metrics are expected to move the end-to-end ones.
//
// Run it from the root of the checkout:
//
//	go run ./benchmark -seed 1                       # everything, both passes
//	go run ./benchmark -workload bgpd_mix -trace 0   # one workload, end to end
//	go run ./benchmark -smoke                        # one short repetition each
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"bgpsim/internal/experiments"
)

// workloadWhy records, next to the names, why each workload was chosen.
var workloadWhy = []struct{ Name, Why string }{
	{"figs_cold", "fresh process regenerating all ten golden tables at W/16: compile, epoch-memo record and machine boot dominate"},
	{"figs_warm", "the same tables regenerated repeatedly in one warm process: memo replay, compile-cache hits, machine boot and postproc dominate"},
	{"suite_mid_cold", "fresh process at the paper's per-rank footprints (B/32): engine routes, cache probes, DDR model and rank scheduler dominate"},
	{"bgpd_mix", "closed-loop job mix against a real bgpd: journal fsync, checkpoint persist/restore, flight table, spec decode and HTTP dominate"},
}

const (
	// setups is how many times a run sets up; setup_s is their median.
	setups = 5
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
	// seqSlots is the length of bgpd_mix's generated sequence; a window
	// uses as long a prefix as it has time for. About a third of the
	// slots draw a new configuration, and a class-S stratum of the space
	// holds 112, four of which go every 135 draws; that bounds the length.
	seqSlots = 9000
)

// bench is one invocation of the benchmark.
type bench struct {
	ctx     context.Context
	seed    int64
	seconds float64
	smoke   bool
	exe     string // this binary, re-executed for the simulation children
	dir     string // scratch directory inside the checkout, removed at exit
	spans   []span // every span of every traced pass
	// The direct drives and the quick-scale ablations do not depend on
	// the workload; they are measured once per invocation.
	drives   map[string]float64
	ablation *ablation
}

// products is what set-up leaves for the workloads.
type products struct {
	bgpd    string // the built daemon
	goldens map[string][][]string
	hplYAML string
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is printed on the line before the result: where and what the run
// measured, and everything a reader needs to compare two runs exactly.
type runInfo struct {
	Workload       string             `json:"workload"`
	Trace          string             `json:"trace"`
	Seed           int64              `json:"seed"`
	NProc          int                `json:"nproc"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	GoVersion      string             `json:"go_version"`
	Commit         string             `json:"commit"`
	Filesystem     string             `json:"checkpoint_filesystem"`
	SimDigest      string             `json:"sim_digest"`
	SimCyclesTotal uint64             `json:"sim_cycles_total"`
	Samples        map[string]summary `json:"samples,omitempty"`
	Notes          []string           `json:"notes,omitempty"`
	Problems       []string           `json:"problems,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of bgpd_mix's job sequence")
		seconds  = flag.Float64("seconds", 20, "how long each workload measures")
		trace    = flag.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics, both = one run printing both")
		smoke    = flag.Bool("smoke", false, "one repetition per workload, a 60-job sequence, quick scale throughout")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSONL")
		child    = flag.String("child", "", "internal: run as a simulation child with this spec")
	)
	flag.Parse()
	if *child != "" {
		return childMain(*child)
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	wantE2E, wantLayers := *trace != "1", *trace != "0"
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fail(fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace))
	}
	var names []string
	for _, w := range workloadWhy {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	for _, path := range []string{"go.mod", "cmd/bgpd", goldenDir, hplPath, haloPath} {
		if _, err := os.Stat(path); err != nil {
			return fail(fmt.Errorf("run from the root of the checkout: %w", err))
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}

	// Children are started with the context, so an interrupt kills them;
	// the deferred removal then takes their directories away.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{ctx: ctx, seed: *seed, seconds: *seconds, smoke: *smoke, exe: exe,
		dir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if *smoke {
		b.seconds = 0
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.dir)

	code := 0
	for _, name := range names {
		res, info, err := b.runWorkload(name, wantE2E, wantLayers)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		info.Trace = *trace
		for _, p := range info.Problems {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, p)
		}
		if !res.Correct {
			code = 1
		}
		out := json.NewEncoder(os.Stdout)
		if err := out.Encode(info); err != nil {
			return fail(err)
		}
		if err := out.Encode(res); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, b.spans); err != nil {
			return fail(err)
		}
	}
	return code
}

// setUp performs the benchmark's set-up once, in its own directory: build
// cmd/bgpd, load the golden tables and the HPL spec, and boot the daemon
// on a fresh checkpoint directory until /readyz answers.
func (b *bench) setUp(workload string, i int) (*products, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("%s-setup-%d", workload, i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &products{}
	var err error
	if p.bgpd, err = buildDaemon(b.ctx, dir); err != nil {
		return nil, err
	}
	yaml, err := os.ReadFile(hplPath)
	if err != nil {
		return nil, err
	}
	p.hplYAML = string(yaml)
	if p.goldens, err = loadGoldens("hpl"); err != nil {
		return nil, err
	}
	d, err := startDaemon(b.ctx, p.bgpd, filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	d.stop()
	return p, nil
}

// runWorkload sets up, measures one workload and checks its outputs.
func (b *bench) runWorkload(name string, wantE2E, wantLayers bool) (*result, *runInfo, error) {
	info := &runInfo{
		Workload: name, Seed: b.seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Filesystem: fsType(b.dir),
		Samples: map[string]summary{},
	}
	res := &result{Metrics: map[string]metricValue{}}
	e2e, layers := map[string]float64{}, map[string]float64{}

	var prod *products
	var setupS []float64
	n := setups
	if b.smoke || !wantE2E { // setup_s is an end-to-end metric
		n = 1
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p, err := b.setUp(name, i)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		prod = p
	}
	e2e["setup_s"] = median(setupS)
	info.Samples["setup_s"] = summarize(setupS)

	w := &measurement{b: b, prod: prod, info: info, res: res, e2e: e2e, layers: layers}
	var err error
	if name == "bgpd_mix" {
		err = w.daemonWorkload(wantE2E, wantLayers)
	} else {
		err = w.simWorkload(name, wantE2E, wantLayers)
	}
	if err != nil {
		return nil, nil, err
	}
	if wantLayers {
		if b.drives == nil {
			d := fullDrives
			if b.smoke {
				d = smokeDrives
			}
			if b.drives, err = runDrives(b.dir, d, prod.hplYAML); err != nil {
				return nil, nil, fmt.Errorf("direct drives: %w", err)
			}
		}
		for k, v := range b.drives {
			layers[k] = v
		}
	}

	if wantE2E {
		if err := fill(res.Metrics, endToEnd, e2e); err != nil {
			return nil, nil, err
		}
	}
	if wantLayers {
		if err := fill(res.Metrics, perLayer, layers); err != nil {
			return nil, nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && len(info.Problems) == 0
	return res, info, nil
}

// keepSpans files one repetition's spans for -trace-out, with parents
// re-based onto the invocation's list.
func (b *bench) keepSpans(workload string, rep int, spans []span) {
	base := len(b.spans)
	for _, s := range spans {
		s.Workload, s.Rep = workload, rep
		if s.Parent >= 0 {
			s.Parent += base
		}
		b.spans = append(b.spans, s)
	}
}

// measurement carries one workload's measurement in progress.
type measurement struct {
	b           *bench
	prod        *products
	info        *runInfo
	res         *result
	e2e, layers map[string]float64
}

func (w *measurement) problem(format string, args ...any) {
	w.info.Problems = append(w.info.Problems, fmt.Sprintf(format, args...))
}

func (w *measurement) note(format string, args ...any) {
	w.info.Notes = append(w.info.Notes, fmt.Sprintf(format, args...))
}

// simRep is one repetition of a simulation workload: the child's own report
// plus the wall, CPU and memory a user of the process sees.
type simRep struct {
	pass               passReport
	wallS, cpuS, rssMB float64
}

// runChild re-executes this binary as a simulation child and returns its
// report with the wall time from exec to exit and the child's rusage.
func (b *bench) runChild(spec childSpec) (rep *childReport, wallS, cpuS, rssMB float64, err error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(b.ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "-child", string(arg))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	t0 := time.Now()
	err = cmd.Run()
	wallS = time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("child %s: %w: %s", arg, err, stderr.String())
	}
	cpuS, rssMB = childUsage(cmd.ProcessState)
	rep = &childReport{}
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("child %s: bad report: %w", arg, err)
	}
	return rep, wallS, cpuS, rssMB, nil
}

// simReps runs one window of a simulation workload. With alternate set,
// every second repetition is traced, so that traced and untraced
// repetitions see the same host conditions.
func (w *measurement) simReps(name string, seconds float64, alternate bool) ([]simRep, error) {
	b := w.b
	spec := childSpec{Kind: "figs", MinPasses: 1}
	if name == "suite_mid_cold" {
		spec.Kind, spec.Mid = "mid", !b.smoke
	}
	minReps := 1
	if alternate {
		minReps = 2
	}
	var reps []simRep
	if name == "figs_warm" {
		spec.WarmUp, spec.MinPasses, spec.Seconds = true, minReps, seconds
		if alternate {
			spec.Trace = "alternate"
		}
		rep, _, _, rssMB, err := b.runChild(spec)
		if err != nil {
			return nil, err
		}
		for _, p := range rep.Passes {
			reps = append(reps, simRep{pass: p, wallS: float64(p.WallNS) / 1e9, cpuS: float64(p.CPUNS) / 1e9, rssMB: rssMB})
		}
		return reps, nil
	}
	for start := time.Now(); len(reps) < minReps || time.Since(start).Seconds() < seconds; {
		spec.Trace = ""
		if alternate && len(reps)%2 == 1 {
			spec.Trace = "all"
		}
		rep, wallS, cpuS, rssMB, err := b.runChild(spec)
		if err != nil {
			return nil, err
		}
		if len(rep.Passes) != 1 {
			return nil, fmt.Errorf("child reported %d passes, want 1", len(rep.Passes))
		}
		reps = append(reps, simRep{pass: rep.Passes[0], wallS: wallS, cpuS: cpuS, rssMB: rssMB})
	}
	return reps, nil
}

// checkSimReps applies the correctness gate to a window's repetitions: a
// figs repetition's ten tables are compared cell by cell with the goldens
// (one operation per table), a mid repetition's points must pass the
// counter cross-checks and hash to the same dumps in every repetition (one
// operation per point).
func (w *measurement) checkSimReps(reps []simRep) {
	var first *passReport
	for i := range reps {
		p := &reps[i].pass
		if first == nil {
			first = p
			w.info.SimDigest, w.info.SimCyclesTotal = p.Digest, p.SimCycles
		}
		if p.Digest != first.Digest || p.SimCycles != first.SimCycles {
			w.problem("repetition %d simulated digest %s, %d cycles; the first simulated %s, %d",
				i, p.Digest, p.SimCycles, first.Digest, first.SimCycles)
		}
		if p.Tables != nil {
			for name, want := range w.prod.goldens {
				w.res.Attempted++
				if diffs := diffTable(name, want, p.Tables[name]); len(diffs) > 0 {
					w.res.Failed++
					w.info.Problems = append(w.info.Problems, diffs...)
				}
			}
		}
		for k, pt := range p.Points {
			w.res.Attempted++
			switch {
			case len(pt.Violations) > 0:
				w.res.Failed++
				w.problem("%s: counter cross-check: %s", pt.Label, strings.Join(pt.Violations, "; "))
			case k >= len(first.Points) || pt.Digest != first.Points[k].Digest:
				w.res.Failed++
				w.problem("%s: dumps differ between repetitions", pt.Label)
			}
		}
	}
}

// simWorkload measures figs_cold, figs_warm or suite_mid_cold.
func (w *measurement) simWorkload(name string, wantE2E, wantLayers bool) error {
	if wantE2E {
		reps, err := w.simReps(name, w.b.seconds, false)
		if err != nil {
			return err
		}
		w.checkSimReps(reps)
		var wall, cpu, rate, rss []float64
		for _, r := range reps {
			if r.pass.Cold && name == "figs_warm" {
				continue // the discarded warm-up pass
			}
			wall = append(wall, r.wallS)
			cpu = append(cpu, r.cpuS)
			rate = append(rate, float64(r.pass.SimCycles)/r.wallS/1e6)
			rss = append(rss, r.rssMB)
		}
		for k, v := range map[string][]float64{"wall_s": wall, "cpu_s": cpu, "sim_mcycles_per_s": rate, "peak_rss_mb": rss} {
			w.e2e[k] = median(v)
			w.info.Samples[k] = summarize(v)
		}
	}
	if !wantLayers {
		return nil
	}

	reps, err := w.simReps(name, w.b.seconds/2, true)
	if err != nil {
		return err
	}
	w.checkSimReps(reps)
	perRep := map[string][]float64{}
	var traced, untraced []float64
	for i, r := range reps {
		p := r.pass
		if p.Cold && name == "figs_warm" {
			continue
		}
		if !p.Traced {
			untraced = append(untraced, r.wallS)
			continue
		}
		traced = append(traced, r.wallS)
		for k, v := range w.passLayers(i, p) {
			perRep[k] = append(perRep[k], v)
		}
		w.b.keepSpans(name, i, p.Spans)
	}
	for k, v := range perRep {
		w.layers[k] = median(v)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("traced pass ran %d traced and %d untraced repetitions", len(traced), len(untraced))
	}
	w.layers["obs.trace_overhead_ratio"] = median(traced) / median(untraced)

	// The ablation ratios: Figure 6's point set run by fresh children
	// that differ in one Scale field, compared by run-phase time, at
	// quick scale. The paper-regime suite takes the memo's record tax at
	// its own scale instead: the eight kernels' run phase in the traced
	// (cold, recording) repetitions over the same in a memo-less child.
	quick, err := w.b.quickAblation()
	if err != nil {
		return err
	}
	w.layers["mpi.fastforward_gain_ratio"] = quick.noFF / quick.noMemo
	w.layers["core.batched_over_interp_ratio"] = quick.interp / quick.noFF
	w.layers["epochmemo.record_tax_ratio"] = quick.cold / quick.noMemo
	if name == "suite_mid_cold" && !w.b.smoke {
		noMemo, err := w.b.fig06RunNS(childSpec{Mid: true, MinPasses: 1, NoEpochMemo: true})
		if err != nil {
			return err
		}
		var recording float64
		for _, k := range experiments.SuiteNames() {
			recording += w.layers["nas."+k+"_run_ms"] * 1e6
		}
		w.layers["epochmemo.record_tax_ratio"] = recording / noMemo
	}
	return nil
}

// ablation holds the median run-phase time of Figure 6's point set at quick
// scale: in fresh processes with everything on (cold, so the memo records),
// then without the epoch memo, without fast-forward as well, and on the
// reference interpreter as well.
type ablation struct{ cold, noMemo, noFF, interp float64 }

// fig06RunNS runs Figure 6's point set in a fresh child, every pass traced,
// and returns the median over the passes of the summed run-phase time.
func (b *bench) fig06RunNS(spec childSpec) (float64, error) {
	spec.Kind, spec.Trace = "fig06", "all"
	rep, _, _, _, err := b.runChild(spec)
	if err != nil {
		return 0, err
	}
	var runNS []float64
	for _, p := range rep.Passes {
		runNS = append(runNS, float64(p.Counts.RunNS))
	}
	return median(runNS), nil
}

// quickAblation measures the quick-scale ablations once per invocation:
// they do not depend on the workload.
func (b *bench) quickAblation() (*ablation, error) {
	if b.ablation != nil {
		return b.ablation, nil
	}
	passes := 3
	if b.smoke {
		passes = 1
	}
	var a ablation
	var cold []float64
	for i := 0; i < passes; i++ {
		runNS, err := b.fig06RunNS(childSpec{MinPasses: 1})
		if err != nil {
			return nil, err
		}
		cold = append(cold, runNS)
	}
	a.cold = median(cold)
	var err error
	if a.noMemo, err = b.fig06RunNS(childSpec{MinPasses: passes, NoEpochMemo: true}); err != nil {
		return nil, err
	}
	if a.noFF, err = b.fig06RunNS(childSpec{MinPasses: passes, NoEpochMemo: true, NoFastForward: true}); err != nil {
		return nil, err
	}
	if a.interp, err = b.fig06RunNS(childSpec{MinPasses: passes, NoEpochMemo: true, NoFastForward: true, Interpreter: true}); err != nil {
		return nil, err
	}
	b.ablation = &a
	return b.ablation, nil
}

// passLayers derives one traced repetition's per-layer values and notes
// where its accounting does not close.
func (w *measurement) passLayers(rep int, p passReport) map[string]float64 {
	c := p.Counts
	vals := countLayers(*c, 1)
	phases := float64(c.CompileNS + c.RunNS + c.PostprocNS)
	vals["bgp.other_ms"] = (float64(p.SweepWallNS) - phases) / 1e6
	if phases > float64(p.SweepWallNS) {
		w.note("repetition %d: phase sums %.1f ms exceed the sweep's wall %.1f ms", rep, phases/1e6, float64(p.SweepWallNS)/1e6)
	}
	if p.SweepElapsedNS > 0 {
		vals["sweep.parallelism"] = float64(p.SweepWallNS) / float64(p.SweepElapsedNS)
	}
	for k, ns := range c.RunNSByKernel {
		layer := "nas."
		if k == "hpl" || k == "halo" {
			layer = "workload."
		}
		vals[layer+k+"_run_ms"] = float64(ns) / 1e6
	}
	// Spans: the calls into experiments are children of the repetition's
	// span and must cover it.
	self := selfNS(p.Spans)
	for i, s := range p.Spans {
		if s.Parent < 0 {
			if total := float64(s.EndNS - s.StartNS); float64(self[i]) > 0.05*total {
				w.note("repetition %d: spans leave %.1f of %.1f ms unaccounted", rep, float64(self[i])/1e6, total/1e6)
			}
			continue
		}
		if s.Layer == "experiments" { // the halo span is for the accounting only
			vals[s.Name] = float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	return vals
}

// countLayers turns per-layer sums into metrics, scaled by k (1 for a
// repetition; bgpd_mix scales its window to 1000 jobs).
func countLayers(c counts, k float64) map[string]float64 {
	vals := map[string]float64{
		"bgp.compile_ms":         float64(c.CompileNS) / 1e6 * k,
		"bgp.run_ms":             float64(c.RunNS) / 1e6 * k,
		"bgp.postproc_ms":        float64(c.PostprocNS) / 1e6 * k,
		"core.route_closed_form": float64(c.RouteClosedForm) * k,
		"core.route_coalesced":   float64(c.RouteCoalesced) * k,
		"core.route_tracked":     float64(c.RouteTracked) * k,
		"core.route_interp":      float64(c.RouteInterp) * k,
		"cache.l1_accesses":      float64(c.L1Accesses) * k,
		"cache.l3_accesses":      float64(c.L3Accesses) * k,
		"memory.ddr_lines":       float64(c.DDRLines) * k,
		"mpi.ff_dispatches":      float64(c.FFDispatches) * k,
		"mpi.ff_cycles":          float64(c.FFCycles) * k,
		"epochmemo.stores":       float64(c.MemoStores) * k,
	}
	if c.ExecCycles > 0 {
		vals["bgp.run_ns_per_sim_kcycle"] = float64(c.RunNS) / (float64(c.ExecCycles) / 1e3)
	}
	if n := c.MemoHits + c.MemoMisses; n > 0 {
		vals["epochmemo.hit_ratio"] = float64(c.MemoHits) / float64(n)
	}
	if n := c.ProgHits + c.ProgMisses; n > 0 {
		vals["progcache.hit_ratio"] = float64(c.ProgHits) / float64(n)
	}
	return vals
}

// daemonWorkload measures bgpd_mix.
func (w *measurement) daemonWorkload(wantE2E, wantLayers bool) error {
	b := w.b
	slots, inProcSlots := seqSlots, 400
	if b.smoke {
		slots, inProcSlots = 60, 60
	}
	seq := newSequence(b.seed, slots, w.prod.hplYAML)
	maxSlots := 0
	if b.smoke {
		maxSlots = slots
	}
	window := func(dir string, seconds float64) (*daemonRun, float64, error) {
		run, err := driveDaemon(b.ctx, w.prod.bgpd, filepath.Join(b.dir, dir), seq, seconds, maxSlots)
		if err != nil {
			return nil, 0, err
		}
		jobs := w.gateJobs(seq, run.Results)
		if jobs == 0 {
			return nil, 0, fmt.Errorf("no job completed: %v", w.info.Problems)
		}
		// Compare two runs exactly on what every run completes: the
		// dumps of the first 500 slots.
		h := sha256.New()
		for i, r := range run.Results {
			if i < 500 && r.Done {
				h.Write(r.DumpSum[:])
			}
		}
		w.info.SimDigest = hex.EncodeToString(h.Sum(nil))
		w.info.SimCyclesTotal = run.After["sim.exec_cycles"] - run.Before["sim.exec_cycles"]
		return run, float64(jobs), nil
	}

	if wantE2E {
		run, jobs, err := window("e2e-ckpt", b.seconds)
		if err != nil {
			return err
		}
		// One repetition is 1000 completed jobs.
		w.e2e["wall_s"] = run.WallS / jobs * 1000
		w.e2e["cpu_s"] = run.CPUS / jobs * 1000
		w.e2e["sim_mcycles_per_s"] = float64(w.info.SimCyclesTotal) / run.WallS / 1e6
		w.e2e["peak_rss_mb"] = run.RSSMB
		w.note("%d jobs completed in %.1f s", int(jobs), run.WallS)
	}
	if !wantLayers {
		return nil
	}

	run, jobs, err := window("trace-ckpt", b.seconds/2)
	if err != nil {
		return err
	}
	for k, v := range countLayers(daemonCounts(run.Before, run.After), 1000/jobs) {
		w.layers[k] = v
	}
	w.info.Problems = append(w.info.Problems, daemonLayers(run, w.layers)...)

	// The timing middleware needs the handler in this process: the first
	// jobs of the same sequence against server.New behind httptest. A
	// discarded pass first fills the process-wide compile cache and epoch
	// memo, then one bare and one wrapped pass give the route times and
	// the middleware's overhead from equally warm starts.
	th := &timedHandler{}
	var bareS, tracedS float64
	for pass, handler := range []*timedHandler{nil, nil, th} {
		dir := filepath.Join(b.dir, fmt.Sprintf("inproc-%d-ckpt", pass))
		wallS, results, err := driveInProcess(b.ctx, dir, seq, inProcSlots, handler)
		if err != nil {
			return err
		}
		w.gateJobs(seq, results)
		bareS, tracedS = tracedS, wallS
	}
	routeUS := map[string][]float64{}
	for _, s := range th.log.spans {
		routeUS[s.Name] = append(routeUS[s.Name], float64(s.EndNS-s.StartNS)/1e3)
	}
	b.keepSpans("bgpd_mix", 0, th.log.spans)
	for route, us := range routeUS {
		w.layers[route] = median(us)
	}
	w.layers["obs.trace_overhead_ratio"] = tracedS / bareS
	return nil
}

// gateJobs applies bgpd_mix's correctness gate to one pass's results, counts
// them into the run's result and returns the number of jobs that passed.
func (w *measurement) gateJobs(seq *sequence, results []jobResult) int {
	attempted, failed, problems := checkJobs(seq, w.b.seed, results)
	w.res.Attempted += attempted
	w.res.Failed += failed
	w.info.Problems = append(w.info.Problems, problems...)
	return attempted - failed
}

// commit is the VCS revision the binary was built from, when the go tool
// stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
