// Bgpmine is the post-processing / data-mining tool of the counter
// toolchain (§IV of the paper): it reads the binary .bgpc dumps written at
// each node, validates them, computes per-counter minimum / maximum / mean
// statistics across nodes, derives the application metrics (MFLOPS,
// L3-DDR traffic, instruction mix) and emits CSV files for spreadsheet
// work.
//
// Example:
//
//	bgpmine -dir ./dumps -label "ft.C -O5" -metrics metrics.csv -stats stats.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"bgpsim/internal/postproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpmine: ")

	var (
		dir        = flag.String("dir", ".", "directory containing .bgpc node dumps")
		label      = flag.String("label", "app", "application label for the metrics record")
		set        = flag.Int("set", 0, "instrumented set to derive metrics for")
		metricsOut = flag.String("metrics", "", "write the per-application metrics record to this CSV file")
		statsOut   = flag.String("stats", "", "write full per-counter statistics to this CSV file")
		printAll   = flag.Bool("all", false, "print every counter's statistics, not just the summary")
		check      = flag.Bool("check", true, "run the counter cross-checks (hardware event identities)")
	)
	flag.Parse()

	dumps, err := postproc.LoadDir(*dir)
	if err != nil {
		log.Fatal(err)
	}
	a, err := postproc.Analyze(dumps)
	if err != nil {
		log.Fatal(err)
	}
	m, err := postproc.Compute(a, *set, *label)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mined %d node dumps, %d sets\n", a.TotalNodes, len(a.Sets))
	if *check {
		results := postproc.CrossCheck(a)
		bad := postproc.Violations(results)
		fmt.Printf("cross-checks: %d identities evaluated, %d violated\n", len(results), len(bad))
		for _, r := range bad {
			fmt.Printf("  VIOLATION set %d %s: %s\n", r.Set, r.Name, r.Detail)
		}
		if len(bad) > 0 {
			defer os.Exit(1)
		}
	}
	fmt.Printf("set %d: %d cycles (%.4f s), %.1f MFLOPS, %.1f MB DDR traffic, SIMD share %.1f%%\n",
		*set, m.ExecCycles, m.ExecSeconds, m.MFLOPS,
		float64(m.DDRTrafficBytes)/1e6, 100*m.SIMDShare)

	if *printAll {
		sa := a.Sets[*set]
		names := make([]string, 0, len(sa.Events))
		for n := range sa.Events {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%-32s %12s %12s %14s %6s\n", "event", "min", "max", "mean", "nodes")
		for _, n := range names {
			s := sa.Events[n]
			fmt.Printf("%-32s %12d %12d %14.2f %6d\n", n, s.Min, s.Max, s.Mean, s.Nodes)
		}
	}

	if *metricsOut != "" {
		writeCSV(*metricsOut, func(w io.Writer) error {
			return postproc.WriteMetricsCSV(w, []*postproc.Metrics{m})
		})
	}
	if *statsOut != "" {
		writeCSV(*statsOut, func(w io.Writer) error { return postproc.WriteStatsCSV(w, a) })
	}
}

// writeCSV creates path, fills it with write and closes it, exiting on any
// error — Close included, which is where a full disk or a quota can first
// report that buffered data never landed.
func writeCSV(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
