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
//	bgpreport -checkpoint ./ckpt             # persist each completed run
//	bgpreport -checkpoint ./ckpt -resume     # after an interrupt: re-run only
//	                                         # the unfinished points
//	bgpreport -checkpoint ./ckpt -from-checkpoint -keep-going
//	                                         # render from the checkpoint alone;
//	                                         # absent points become dashes
//
// One walk of the catalog (experiments.Report) simulates a shared point once;
// the checkpoint directory is keyed by run identity, so a re-render restores
// every point any tool stored there. With -keep-going the report is
// still written when points are missing: their cells render as dashes, each
// affected table carries a "partial" note, and the missing benchmark ×
// mode × build × L3 points are listed at the end of the report and on
// stderr.
//
// Exit status: 0 on a complete report, 1 on error, 3 on a partial report.
package main

import (
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

// run carries the whole command so the output file's defer fires before the
// process exits with a status code.
func run() int {
	var (
		class = flag.String("class", "B", "problem class")
		out   = flag.String("o", "", "write the report to this file instead of stdout")
		specs = flag.String("spec", "", "YAML workload spec files, comma-separated: append a characterization section per spec")
	)
	missing := &experiments.MissingSet{}
	s := experiments.Scale{Missing: missing}
	flag.IntVar(&s.Ranks, "ranks", 32, "process count")
	flag.IntVar(&s.Workers, "jobs", 0, "concurrent simulations per figure (0 = one per host core)")
	flag.BoolVar(&s.ResumeOnly, "from-checkpoint", false, "render from -checkpoint alone without simulating; combine with -keep-going for a partial report")
	// -no-epochmemo, -keep-going, -checkpoint, -trace, -cpuprofile and the rest of
	// the flags every batch command shares are declared in cliflags.
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

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "Blue Gene/P workload characterization — full evaluation\n")
	fmt.Fprintf(w, "class %s, %d processes\n\n", s.Class, s.Ranks)

	start := time.Now()
	err = experiments.Report(s, w, func(step string) { log.Printf("running %s...", step) })
	for _, path := range strings.Split(*specs, ",") {
		if path = strings.TrimSpace(path); err == nil && path != "" {
			log.Printf("running workload spec %s...", path)
			err = specSection(s, w, path)
		}
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("done in %v", time.Since(start).Round(time.Second))
	if missing.Missing() > 0 {
		fmt.Fprintf(w, "Missing points (%d of %d):\n", missing.Missing(), missing.Total())
		log.Printf("partial report: %d of %d points missing", missing.Missing(), missing.Total())
		for _, label := range missing.Labels() {
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
