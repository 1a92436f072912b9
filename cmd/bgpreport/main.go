// Bgpreport regenerates every figure of the paper's evaluation in one run
// and writes the full report — the data behind EXPERIMENTS.md: every study of
// the catalog (experiments.Studies) in order, then a characterization section
// per -spec file.
//
//	bgpreport                    # class B / 32 ranks (the paper's per-rank regime)
//	bgpreport -class C -ranks 128  # the paper's full scale
//
// A full-scale report is hours of simulation, so it can run resiliently:
//
//	bgpreport -checkpoint ./ckpt             # persist each executed run; run
//	                                         # again after an interrupt and only
//	                                         # the unfinished points re-execute
//	bgpreport -checkpoint ./ckpt -from-checkpoint
//	                                         # render from the checkpoint alone;
//	                                         # absent points become dashes
//
// One walk of the catalog (experiments.Report) simulates a shared point once;
// the checkpoint directory is keyed by run identity, so a re-render restores
// every point any tool stored there. The report is still written when
// points are missing: their cells render as dashes, each affected table
// carries a "partial" note, and the missing benchmark × mode × build × L3
// points are listed at the end of the report and on stderr.
//
// Exit status: 0 on a complete report, 1 on error, 3 on a partial report.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/cliflags"
	"bgpsim/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpreport: ")
	os.Exit(run())
}

// run carries the whole command so the profile defers fire before the
// process exits with a status code.
func run() int {
	var (
		class = flag.String("class", "B", "problem class")
		out   = flag.String("o", "", "write the report to this file instead of stdout")
		specs = flag.String("spec", "", "YAML workload spec files, comma-separated: append a characterization section per spec")
	)
	s := experiments.Scale{Missing: &experiments.MissingSet{}}
	flag.IntVar(&s.Ranks, "ranks", 32, "process count")
	flag.IntVar(&s.Workers, "jobs", 0, "concurrent simulations per figure (0 = one per host core)")
	flag.BoolVar(&s.ResumeOnly, "from-checkpoint", false, "render from -checkpoint alone without simulating; absent points become dashes")
	// -no-epochmemo, -checkpoint, -trace, -cpuprofile and the rest of the
	// flags every batch command shares are declared in cliflags.
	shared := cliflags.Bind(flag.CommandLine, &s)
	flag.Parse()

	if s.ResumeOnly && s.CheckpointDir == "" {
		log.Print("-from-checkpoint requires -checkpoint")
		return 1
	}
	stop, err := shared.Start()
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stop()

	s.Class, err = bgp.ParseClass(*class)
	if err != nil {
		log.Print(err)
		return 1
	}

	dst := os.Stdout
	if *out != "" {
		if dst, err = os.Create(*out); err != nil {
			log.Print(err)
			return 1
		}
	}
	start := time.Now()
	w := bufio.NewWriter(dst)
	status := report(s, w, *specs)
	// A report that did not reach its file is an error, whatever it holds.
	err = w.Flush()
	if dst != os.Stdout {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if status != 1 {
		log.Printf("done in %v", time.Since(start).Round(time.Second))
	}
	return status
}

// report writes the full report to w and returns the exit status: 0 when
// complete, 1 on error, 3 when points are missing.
func report(s experiments.Scale, w io.Writer, specs string) int {
	fmt.Fprintf(w, "Blue Gene/P workload characterization — full evaluation\n")
	fmt.Fprintf(w, "class %s, %d processes\n\n", s.Class, s.Ranks)

	err := experiments.Report(s, w, func(step string) { log.Printf("running %s...", step) })
	for _, path := range strings.Split(specs, ",") {
		if path = strings.TrimSpace(path); err == nil && path != "" {
			log.Printf("running workload spec %s...", path)
			err = specSection(s, w, path)
		}
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if n := s.Missing.Missing(); n > 0 {
		fmt.Fprintf(w, "Missing points (%d of %d):\n", n, s.Missing.Total())
		log.Printf("partial report: %d of %d points missing", n, s.Missing.Total())
		for _, label := range s.Missing.Labels() {
			fmt.Fprintf(w, "  %s\n", label)
			log.Printf("  missing: %s", label)
		}
		return 3
	}
	return 0
}

// specSection appends the characterization section of the spec file at path.
func specSection(s experiments.Scale, w io.Writer, path string) error {
	spec, err := bgp.LoadWorkloadSpec(path)
	if err != nil {
		return err
	}
	pts, err := experiments.SpecCharacterization(spec, s)
	if err != nil {
		return fmt.Errorf("workload spec %s: %w", path, err)
	}
	experiments.RenderSpec(w, spec, pts)
	_, err = fmt.Fprintln(w)
	return err
}
