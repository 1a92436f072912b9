// Bgprun runs NAS benchmarks on a simulated Blue Gene/P partition with
// the performance-counter interface library linked in, writes the per-node
// binary counter dumps, and prints the derived whole-application metrics.
//
// Example — the paper's headline configuration:
//
//	bgprun -bench ft -class C -ranks 128 -mode VNM -opt "-O5 -qarch=440d" -dump ./dumps
//
// -bench accepts a comma-separated list (or "all" for the whole suite);
// the independent runs then fan out over -jobs host workers, with dumps
// for each benchmark in its own subdirectory. Results are identical at any
// -jobs value and are always printed in benchmark order.
//
// -spec runs declarative YAML workload specs (see specs/hpl.yaml and the
// DESIGN.md "Workload specs" section) through the same pipeline:
//
//	bgprun -spec specs/hpl.yaml -class W -ranks 16
//
// Multi-benchmark runs can be made resilient with -retries, -run-timeout,
// -keep-going (print the completed benchmarks past failed ones) and
// -checkpoint/-resume (persist completed runs; re-run only the unfinished
// ones after an interrupt).
//
// Exit status: 0 on success, 1 on error, 3 when -keep-going produced
// partial output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	bgp "bgpsim"
	"bgpsim/internal/cliflags"
	"bgpsim/internal/experiments"
	"bgpsim/internal/postproc"
	"bgpsim/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgprun: ")
	os.Exit(run())
}

// run carries the whole command so the profile defers fire before the
// process exits with a status code.
func run() int {
	var (
		bench     = flag.String("bench", "mg", "NAS benchmarks, comma-separated or \"all\": "+strings.Join(bgp.Benchmarks(), ", "))
		specFiles = flag.String("spec", "", "YAML workload spec files, comma-separated (e.g. specs/hpl.yaml); replaces -bench unless -bench is given explicitly")
		class     = flag.String("class", "A", "problem class: S, W, A, B or C")
		ranks     = flag.Int("ranks", 32, "MPI process count (SP/BT round down to a square)")
		mode      = flag.String("mode", "VNM", "node operating mode: SMP1, SMP4, DUAL or VNM")
		opt       = flag.String("opt", "-O5 -qarch=440d", "compiler build, e.g. \"-O3\" or \"-O5 -qarch=440d\"")
		l3MB      = flag.Int("l3", -1, "L3 size in MB per node (-1 = default 8, 0 = disabled)")
		nodes     = flag.Int("nodes", 0, "partition size in nodes (0 = as many as the ranks need)")
		dumpDir   = flag.String("dump", "", "directory for per-node .bgpc counter dumps")
		csvOut    = flag.String("csv", "", "write the metrics records to this CSV file")
		timeline  = flag.String("timeline", "", "write a periodic counter timeline to this CSV file (single benchmark only)")
		tlEvery   = flag.Uint64("timeline-interval", 1_000_000, "timeline sampling interval in cycles")
		tlEvents  = flag.String("timeline-events", "BGP_PU0_CYCLES,BGP_NODE_FPU_FMA,BGP_DDR_READ_LINES",
			"comma-separated event mnemonics to sample")
	)
	var s experiments.Scale
	flag.IntVar(&s.Workers, "jobs", 0, "concurrent simulations for multi-benchmark runs (0 = one per host core)")
	// -no-epochmemo, -retries, -checkpoint, -trace, -cpuprofile and the rest of
	// the flags every batch command shares are declared in cliflags.
	shared := cliflags.Bind(flag.CommandLine, &s)
	flag.Parse()

	stop, err := shared.Start()
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stop()

	cls, err := bgp.ParseClass(*class)
	if err != nil {
		log.Print(err)
		return 1
	}
	opts, err := bgp.ParseOptions(*opt)
	if err != nil {
		log.Print(err)
		return 1
	}
	opMode, err := bgp.ParseMode(*mode)
	if err != nil {
		log.Print(err)
		return 1
	}

	// What every run shares.
	base := bgp.RunConfig{Class: cls, Ranks: *ranks, Mode: opMode, Opts: opts, Nodes: *nodes, DumpDir: *dumpDir}
	switch {
	case *l3MB == 0:
		base.L3Bytes = -1
	case *l3MB > 0:
		base.L3Bytes = *l3MB << 20
	}
	if *timeline != "" {
		base.TimelineInterval = *tlEvery
		base.TimelineEvents = strings.Split(*tlEvents, ",")
	}

	// The run list: NAS benchmarks by name, workload specs by file. A
	// -spec invocation replaces the default benchmark unless the user
	// spelled -bench out too, in which case both run.
	benchSet := *specFiles == ""
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "bench" {
			benchSet = true
		}
	})
	var cfgs []bgp.RunConfig
	if benchSet {
		names := strings.Split(*bench, ",")
		if strings.EqualFold(strings.TrimSpace(*bench), "all") {
			names = bgp.Benchmarks()
		}
		for _, b := range names {
			cfg := base
			cfg.Benchmark = strings.ToLower(strings.TrimSpace(b))
			cfgs = append(cfgs, cfg)
		}
	}
	if *specFiles != "" {
		for _, path := range strings.Split(*specFiles, ",") {
			cfg := base
			if cfg.Spec, err = bgp.LoadWorkloadSpec(strings.TrimSpace(path)); err != nil {
				log.Print(err)
				return 1
			}
			cfgs = append(cfgs, cfg)
		}
	}
	if *timeline != "" && len(cfgs) > 1 {
		log.Print("-timeline supports a single benchmark")
		return 1
	}
	if *dumpDir != "" {
		for i := range cfgs {
			if len(cfgs) > 1 {
				// Each run dumps into a subdirectory named after its workload.
				// A name the resolver rejects still names one; that run fails
				// in RunAll, which reports its position.
				src, _, _ := bgp.ResolveWorkload(cfgs[i])
				cfgs[i].DumpDir = filepath.Join(*dumpDir, src.Name)
			}
			if err := os.MkdirAll(cfgs[i].DumpDir, 0o755); err != nil {
				log.Print(err)
				return 1
			}
		}
	}

	s.Stamp(cfgs)
	results, err := bgp.RunAll(context.Background(), cfgs, s.SweepConfig)
	partial := false
	if err != nil {
		var se *sweep.SweepError
		if s.ContinueOnError && errors.As(err, &se) && se.Cause == nil {
			// Completed benchmarks still print; the failures go to stderr
			// and the exit status says partial.
			partial = true
			for _, f := range se.Failed {
				log.Printf("failed: %v", f.Err)
			}
		} else {
			log.Print(err)
			return 1
		}
	}

	metrics := make([]*postproc.Metrics, 0, len(results))
	first := true
	for i, res := range results {
		if res == nil {
			continue
		}
		if !first {
			fmt.Println()
		}
		first = false
		printRun(res, cfgs[i].DumpDir)
		metrics = append(metrics, res.Metrics)
	}

	if *timeline != "" {
		if res := results[0]; res != nil {
			f, err := os.Create(*timeline)
			if err != nil {
				log.Print(err)
				return 1
			}
			if err := res.Timeline.WriteCSV(f); err != nil {
				log.Print(err)
				return 1
			}
			f.Close()
			fmt.Printf("timeline CSV:     %s (%d samples)\n", *timeline, len(res.Timeline.Samples()))
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		if err := postproc.WriteMetricsCSV(f, metrics); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("metrics CSV:      %s\n", *csvOut)
	}
	if partial {
		log.Printf("partial output: %d of %d benchmarks missing", len(cfgs)-len(metrics), len(cfgs))
		return 3
	}
	return 0
}

func printRun(res *bgp.Result, dumpDir string) {
	m := res.Metrics
	fmt.Printf("run:              %s\n", res.Label)
	fmt.Printf("nodes:            %d (%d ranks)\n", res.Config.Nodes, res.Config.Ranks)
	fmt.Printf("execution:        %d cycles (%.4f s at 850 MHz)\n", m.ExecCycles, m.ExecSeconds)
	fmt.Printf("MFLOPS:           %.1f total, %.1f per chip\n", m.MFLOPS, m.MFLOPSPerChip)
	fmt.Printf("SIMD share:       %.1f%% of FP instructions\n", 100*m.SIMDShare)
	fmt.Printf("L3-DDR traffic:   %.1f MB (%.1f MB/s)\n", float64(m.DDRTrafficBytes)/1e6, m.DDRBandwidthMBs)
	fmt.Printf("L1 hit rate:      %.2f%%\n", 100*m.L1HitRate)
	fmt.Printf("L3 miss rate:     %.2f%%\n", 100*m.L3MissRate)
	fmt.Printf("FP profile:\n")
	fractions := experiments.FPFractions(m)
	for _, ev := range postproc.FPClassEvents {
		if m.FPMix[ev] == 0 {
			continue
		}
		fmt.Printf("  %-28s %12.0f (%5.1f%%)\n", ev, m.FPMix[ev], 100*fractions[ev])
	}
	if dumpDir != "" {
		fmt.Printf("dumps:            %d files in %s\n", len(res.Dumps), dumpDir)
	}
}
