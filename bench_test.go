package bgp_test

// Microbenchmarks for measuring while you work: the operating-mode table
// (Figure 3), the interface library's Start/Stop cost, a best-build suite
// pass and run-identity resolution. The default scale is small; set
// BGP_BENCH_SCALE=mid for the paper's per-rank regime at a quarter of the
// processes, or BGP_BENCH_SCALE=full for class C with 128 processes.
//
// The numbers of record — cold and warm regeneration of every figure
// (experiments.fig06_ms, fig07_10_ms, fig11_ms, fig12_14_ms, hpl_ms), the
// engine, compile-cache and observer ratios — come from `go run
// ./benchmark` (benchmark/README.md).

import (
	"os"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/bgpctr"
	"bgpsim/internal/experiments"
	"bgpsim/internal/machine"
	"bgpsim/internal/node"
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
