package bgp_test

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the figure's full data series through the shared
// experiments harness, so `go test -bench=.` re-derives every reported
// number.
//
// The default scale is small so the full harness completes in minutes; set
// BGP_BENCH_SCALE=mid for the paper's per-rank regime at a quarter of the
// processes, or BGP_BENCH_SCALE=full for class C with 128 processes (the
// paper's exact configuration; expect several minutes per figure).
//
// These are for measuring while you work. The numbers of record — cold and
// warm figure regeneration, the engine, fast-forward, compile-cache and
// observer ratios — come from `go run ./benchmark` (benchmark/README.md).

import (
	"fmt"
	"os"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/bgpctr"
	"bgpsim/internal/experiments"
	"bgpsim/internal/machine"
	"bgpsim/internal/node"
	"bgpsim/internal/obs"
	"bgpsim/internal/upc"
)

func benchScale() experiments.Scale {
	var s experiments.Scale
	switch os.Getenv("BGP_BENCH_SCALE") {
	case "full":
		s = experiments.FullScale()
	case "mid":
		s = experiments.MidScale()
	default:
		s = experiments.QuickScale()
	}
	return s
}

// BenchmarkFig03Modes exercises the operating-mode table (Figure 3): the
// same workload booted in each of the four node modes.
func BenchmarkFig03Modes(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		for _, mode := range []bgp.OpMode{bgp.SMP1, bgp.SMP4, bgp.Dual, bgp.VNM} {
			res, err := bgp.Run(bgp.RunConfig{
				Benchmark: "ep",
				Class:     s.Class,
				Ranks:     mode.RanksPerNode() * 4,
				Mode:      mode,
				Opts:      experiments.BestBuild(),
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Metrics.MFLOPS
		}
	}
}

// BenchmarkInterfaceOverhead measures the §IV sanity check: the cycle cost
// of the interface library's initialize+start+stop path (the paper's
// Time-Base-verified 196 cycles) and the wall cost of the calls themselves.
func BenchmarkInterfaceOverhead(b *testing.B) {
	n := node.New(0, node.DefaultParams(), nil, nil)
	var cycles uint64
	for i := 0; i < b.N; i++ {
		before := n.Cores[0].TimeBase()
		s := bgpctr.Initialize(n, 0, upc.Mode2)
		s.Start(1)
		s.Stop(1)
		cycles = n.Cores[0].TimeBase() - before
	}
	b.ReportMetric(float64(cycles), "machine-cycles")
}

func BenchmarkFig06InstructionProfile(b *testing.B) {
	s := benchScale()
	var simCycles float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Profile(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("profile rows = %d", len(rows))
		}
		simCycles = 0
		for _, r := range rows {
			simCycles += float64(r.Metrics.ExecCycles)
		}
	}
	if d := b.Elapsed().Seconds(); d > 0 {
		b.ReportMetric(simCycles*float64(b.N)/d, "sim-cycles/s")
	}
}

// BenchmarkFig06InstructionProfileCold is the figure-6 benchmark with the
// compile-and-classification cache disabled, so every run lowers and
// classifies its kernel fresh. Against the default (memoized) benchmark
// above it measures what cross-run memoization saves.
func BenchmarkFig06InstructionProfileCold(b *testing.B) {
	s := benchScale()
	s.NoProgCache = true
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Profile(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("profile rows = %d", len(rows))
		}
	}
}

// BenchmarkFig06InstructionProfileObserved is the figure-6 benchmark with
// a full metrics recorder attached. Compared against the nil-observer run
// above it measures the observability overhead (the budget is <2%).
func BenchmarkFig06InstructionProfileObserved(b *testing.B) {
	s := benchScale()
	s.Observer = obs.NewRecorder(obs.NewRegistry(), nil)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Profile(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("profile rows = %d", len(rows))
		}
	}
}

func BenchmarkFig07FTSIMD(b *testing.B) {
	benchmarkCompilerSweep(b, "ft")
}

func BenchmarkFig08MGSIMD(b *testing.B) {
	benchmarkCompilerSweep(b, "mg")
}

func benchmarkCompilerSweep(b *testing.B, bench string) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CompilerSweep(bench, s)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(100*last.SIMDShare, "simd-share-%")
	}
}

func BenchmarkFig09ExecTime(b *testing.B) {
	benchmarkExecTimes(b, experiments.SuiteNames()[:4])
}

func BenchmarkFig10ExecTime(b *testing.B) {
	benchmarkExecTimes(b, experiments.SuiteNames()[4:])
}

func benchmarkExecTimes(b *testing.B, names []string) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig910ExecTimes(names, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(names) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig11L3Sweep(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11L3Sweep(experiments.SuiteNames(), s)
		if err != nil {
			b.Fatal(err)
		}
		// Report the suite-mean traffic reduction of the 4 MB point.
		var sum float64
		for _, r := range rows {
			sum += float64(r.Points[2].DDRTrafficBytes) / float64(r.Points[0].DDRTrafficBytes)
		}
		b.ReportMetric(sum/float64(len(rows)), "traffic-at-4MB-vs-noL3")
	}
}

func benchmarkModes(b *testing.B, metric func(experiments.ModeRow) float64, unit string) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig121314Modes(experiments.SuiteNames(), s)
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]float64, len(rows))
		for k, r := range rows {
			vals[k] = metric(r)
		}
		b.ReportMetric(experiments.Mean(vals), unit)
	}
}

func BenchmarkFig12DDRTrafficRatio(b *testing.B) {
	benchmarkModes(b, func(r experiments.ModeRow) float64 { return r.TrafficRatio }, "mean-traffic-ratio")
}

func BenchmarkFig13VNMSlowdown(b *testing.B) {
	benchmarkModes(b, func(r experiments.ModeRow) float64 { return r.SlowdownPct }, "mean-slowdown-%")
}

func BenchmarkFig14MFLOPSPerChip(b *testing.B) {
	benchmarkModes(b, func(r experiments.ModeRow) float64 { return r.MFLOPSPerChipGain }, "mean-mflops-gain")
}

// BenchmarkHPLSpec measures the workload-spec pipeline end to end: decode
// specs/hpl.yaml, compile it through the spec → kernel lowering, and run
// the four-mode characterization the figure pins. It tracks the cost of
// spec-driven simulation alongside the NAS figures.
func BenchmarkHPLSpec(b *testing.B) {
	s := benchScale()
	spec, err := bgp.LoadWorkloadSpec("specs/hpl.yaml")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SpecCharacterization(spec, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 4 {
			b.Fatalf("characterization points = %d", len(pts))
		}
	}
}

// BenchmarkSuiteBestBuild measures a full instrumented suite pass at the
// best build — the simulator's end-to-end throughput.
func BenchmarkSuiteBestBuild(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		for _, name := range experiments.SuiteNames() {
			res, err := bgp.Run(bgp.RunConfig{
				Benchmark: name,
				Class:     s.Class,
				Ranks:     s.Ranks,
				Mode:      machine.VNM,
				Opts:      experiments.BestBuild(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Metrics.ExecCycles == 0 {
				b.Fatal("no cycles")
			}
		}
	}
}

// Example-style sanity print exercised under -bench to make the scale
// visible in benchmark logs.
func BenchmarkScaleInfo(b *testing.B) {
	s := benchScale()
	b.Logf("scale: class %s, %d ranks", s.Class, s.Ranks)
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("%v", s)
	}
}

// BenchmarkRunKey measures resolving a run's identity, alone and with the
// checkpoint-store read each bgpd result fetch makes after it, for a named
// benchmark and for the HPL spec at the quick scale. A decoded spec carries
// its fingerprint, so a spec run's key costs what a named run's does.
func BenchmarkRunKey(b *testing.B) {
	s := experiments.QuickScale()
	hpl, err := bgp.LoadWorkloadSpec("specs/hpl.yaml")
	if err != nil {
		b.Fatal(err)
	}
	store, err := bgp.OpenCheckpointStore(b.TempDir(), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name string
		cfg  bgp.RunConfig
	}{
		{"cg", bgp.RunConfig{Benchmark: "cg"}},
		{"hpl", bgp.RunConfig{Spec: hpl}},
	} {
		cfg := w.cfg
		cfg.Class, cfg.Ranks, cfg.Mode, cfg.Opts = s.Class, s.Ranks, machine.VNM, experiments.BestBuild()
		res, err := bgp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Persist(bgp.RunKey(0, cfg), cfg, res); err != nil {
			b.Fatal(err)
		}
		b.Run(w.name+"/RunKey", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bgp.RunKey(0, cfg)
			}
		})
		b.Run(w.name+"/RunKey+DumpFile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if blob, _ := store.DumpFile(bgp.RunKey(0, cfg), cfg, 0); blob == nil {
					b.Fatal("DumpFile missed")
				}
			}
		})
		b.Run(w.name+"/RunKey+Restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if store.Restore(bgp.RunKey(0, cfg), cfg) == nil {
					b.Fatal("Restore missed")
				}
			}
		})
	}
}
