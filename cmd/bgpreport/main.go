// Bgpreport regenerates every figure of the paper's evaluation in one run
// and writes the full report — the data behind EXPERIMENTS.md: every study of
// the catalog (experiments.Studies) in order, each swept once, then a
// characterization section per -spec file.
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
// Every figure's sweep shares the one checkpoint directory; run keys are
// derived from each point's configuration, so they never collide and a
// re-render restores every point it can. With -keep-going the report is
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
	// -no-epochmemo, -retries, -checkpoint, -trace, -cpuprofile and the rest of
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

	failed := false
	step := func(name string, f func() error) {
		if failed {
			return
		}
		start := time.Now()
		log.Printf("running %s...", name)
		if err := f(); err != nil {
			log.Printf("%s: %v", name, err)
			failed = true
			return
		}
		log.Printf("%s done in %v", name, time.Since(start).Round(time.Second))
	}

	for _, st := range experiments.Studies() {
		step(st.Step, func() error {
			if err := st.Run(s, w, ""); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		})
	}
	if *specs != "" {
		for _, path := range strings.Split(*specs, ",") {
			path := strings.TrimSpace(path)
			step("workload spec "+path, func() error {
				spec, err := bgp.LoadWorkloadSpec(path)
				if err != nil {
					return err
				}
				pts, err := experiments.SpecCharacterization(spec, s)
				if err != nil {
					return err
				}
				experiments.RenderSpec(w, spec, pts)
				fmt.Fprintln(w)
				return nil
			})
		}
	}
	if failed {
		return 1
	}
	if missing.Missing() > 0 {
		fmt.Fprintf(w, "Missing points (%d of %d):\n", missing.Missing(), missing.Total())
		for _, label := range missing.Labels() {
			fmt.Fprintf(w, "  %s\n", label)
		}
		log.Printf("partial report: %d of %d points missing", missing.Missing(), missing.Total())
		for _, label := range missing.Labels() {
			log.Printf("  missing: %s", label)
		}
		return 3
	}
	return 0
}
