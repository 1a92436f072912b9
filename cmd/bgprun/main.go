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
// A failed benchmark never discards the others: the completed ones print,
// and the failures are logged on stderr. -checkpoint persists each executed
// run and restores every run whose entry validates, so after an interrupt
// the same command re-runs only the unfinished ones. Each run gets one
// attempt: a simulation is a pure function of its configuration, so a
// failed run fails the same way again.
//
// Exit status: 0 on success, 1 on error, 3 when some benchmarks failed and
// the output is partial.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	// -no-epochmemo, -checkpoint, -trace, -cpuprofile and the rest of the
	// flags every batch command shares are declared in cliflags.
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
	// Completed benchmarks still print; the failures go to stderr and the
	// exit status says partial.
	var se *sweep.SweepError
	if err != nil && !errors.As(err, &se) {
		log.Print(err)
		return 1
	}
	if se != nil {
		for _, f := range se.Failed {
			log.Printf("failed: %v", f.Err)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	n, err := printResults(w, results, cfgs, *timeline, *csvOut)
	// Output that did not reach stdout is an error, whatever it holds.
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if se != nil {
		log.Printf("partial output: %d of %d benchmarks missing", len(cfgs)-n, len(cfgs))
		return 3
	}
	return 0
}

// printResults prints each completed run to w, writes the -timeline and
// -csv files, and returns how many runs completed.
func printResults(w io.Writer, results []*bgp.Result, cfgs []bgp.RunConfig, timeline, csvOut string) (int, error) {
	metrics := make([]*postproc.Metrics, 0, len(results))
	for i, res := range results {
		if res == nil {
			continue
		}
		if len(metrics) > 0 {
			fmt.Fprintln(w)
		}
		printRun(w, res, cfgs[i].DumpDir)
		metrics = append(metrics, res.Metrics)
	}
	if timeline != "" && results[0] != nil {
		tl := results[0].Timeline
		if err := writeFile(timeline, tl.WriteCSV); err != nil {
			return len(metrics), err
		}
		fmt.Fprintf(w, "timeline CSV:     %s (%d samples)\n", timeline, len(tl.Samples()))
	}
	if csvOut != "" {
		err := writeFile(csvOut, func(f io.Writer) error { return postproc.WriteMetricsCSV(f, metrics) })
		if err != nil {
			return len(metrics), err
		}
		fmt.Fprintf(w, "metrics CSV:      %s\n", csvOut)
	}
	return len(metrics), nil
}

// writeFile creates path and fills it through write; a failed Close is an
// error like a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printRun(w io.Writer, res *bgp.Result, dumpDir string) {
	m := res.Metrics
	fmt.Fprintf(w, "run:              %s\n", res.Label)
	fmt.Fprintf(w, "nodes:            %d (%d ranks)\n", res.Config.Nodes, res.Config.Ranks)
	fmt.Fprintf(w, "execution:        %d cycles (%.4f s at 850 MHz)\n", m.ExecCycles, m.ExecSeconds)
	fmt.Fprintf(w, "MFLOPS:           %.1f total, %.1f per chip\n", m.MFLOPS, m.MFLOPSPerChip)
	fmt.Fprintf(w, "SIMD share:       %.1f%% of FP instructions\n", 100*m.SIMDShare)
	fmt.Fprintf(w, "L3-DDR traffic:   %.1f MB (%.1f MB/s)\n", float64(m.DDRTrafficBytes)/1e6, m.DDRBandwidthMBs)
	fmt.Fprintf(w, "L1 hit rate:      %.2f%%\n", 100*m.L1HitRate)
	fmt.Fprintf(w, "L3 miss rate:     %.2f%%\n", 100*m.L3MissRate)
	fmt.Fprintf(w, "FP profile:\n")
	fractions := experiments.FPFractions(m)
	for _, ev := range postproc.FPClassEvents {
		if m.FPMix[ev] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %12.0f (%5.1f%%)\n", ev, m.FPMix[ev], 100*fractions[ev])
	}
	if dumpDir != "" {
		fmt.Fprintf(w, "dumps:            %d files in %s\n", len(res.Dumps), dumpDir)
	}
}
