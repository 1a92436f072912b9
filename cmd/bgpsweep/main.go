// Bgpsweep regenerates one figure of the paper's evaluation: it looks the
// selected table up in the study catalog (experiments.Studies), drives the
// parameter sweep behind it (compiler builds, L3 sizes, or operating modes)
// and prints the series the paper plots.
//
// Examples:
//
//	bgpsweep -fig 6                 # dynamic FP instruction profile
//	bgpsweep -fig 7                 # FT SIMD instructions by build
//	bgpsweep -fig 11 -class C -ranks 128
//	bgpsweep -fig 12                # VNM vs SMP/1 comparison (also 13, 14)
//	bgpsweep -fig 11 -jobs 4        # fan the sweep out over 4 host cores
//	bgpsweep -ext prefetch          # §IX extension: L2 prefetch-depth sweep
//	bgpsweep -ext hybrid            # §IX extension: MPI+OpenMP vs pure MPI
//	bgpsweep -spec specs/hpl.yaml   # characterize a YAML workload spec
//	                                # across the four operating modes
//
// Long sweeps can run resiliently:
//
//	bgpsweep -fig 11 -checkpoint ./ckpt            # persist each completed run
//	bgpsweep -fig 11 -checkpoint ./ckpt -resume    # after an interrupt: re-run
//	                                               # only the unfinished points
//	bgpsweep -fig 11 -retries 2 -run-timeout 5m    # retry transient failures,
//	                                               # bound each run attempt
//	bgpsweep -fig 11 -keep-going                   # render a partial figure
//	                                               # past failed points
//
// Every point of a figure is an independent simulation; -jobs bounds the
// host worker pool they fan out on (0 = one worker per host core). The
// printed series are byte-identical at any -jobs value: parallelism is
// strictly cross-run, and each run's rank scheduling stays deterministic.
// Retry, checkpoint/resume and -keep-going never perturb completed points
// either — a recovered sweep's output matches a clean run's.
//
// Exit status: 0 on success, 1 on error, 3 when -keep-going produced
// partial output (the missing points are listed on stderr).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	bgp "bgpsim"
	"bgpsim/internal/cliflags"
	"bgpsim/internal/experiments"
	"bgpsim/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpsweep: ")
	os.Exit(run())
}

// run carries the whole command so profile, progress and checkpoint defers
// fire before the process exits with a status code.
func run() int {
	var (
		fig      = flag.Int("fig", 6, "figure to regenerate: 6, 7, 8, 9, 10, 11, 12, 13 or 14")
		ext      = flag.String("ext", "", "extension study instead of a figure: prefetch, l3prefetch or hybrid")
		specFile = flag.String("spec", "", "characterize a YAML workload spec (e.g. specs/hpl.yaml) across operating modes instead of a figure")
		class    = flag.String("class", "B", "problem class: S, W, A, B or C")
		progress = flag.Bool("progress", false, "print sweep progress and throughput to stderr when done")
	)
	missing := &experiments.MissingSet{}
	s := experiments.Scale{Missing: missing}
	flag.IntVar(&s.Ranks, "ranks", 32, "process count (class B / 32 ranks reproduces the paper's per-rank regime)")
	flag.IntVar(&s.Workers, "jobs", 0, "concurrent simulations (0 = one per host core); results do not depend on it")
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

	s.Class, err = bgp.ParseClass(*class)
	if err != nil {
		log.Print(err)
		return 1
	}
	var tracker sweep.Progress
	if *progress {
		s.Progress = &tracker
		defer func() { log.Print(tracker.Snapshot()) }()
	}
	w := os.Stdout

	if *specFile != "" {
		spec, err := bgp.LoadWorkloadSpec(*specFile)
		if err != nil {
			log.Print(err)
			return 1
		}
		pts, err := experiments.SpecCharacterization(spec, s)
		if err != nil {
			log.Print(err)
			return 1
		}
		experiments.RenderSpec(w, spec, pts)
		return partialStatus(missing)
	}

	// Everything else is an entry of the study catalog.
	selector := fmt.Sprintf("-fig %d", *fig)
	if *ext != "" {
		selector = "-ext " + *ext
	}
	st, ok := experiments.Lookup(selector)
	if !ok {
		if *ext != "" {
			log.Printf("unknown extension %q (have prefetch, l3prefetch, hybrid)", *ext)
		} else {
			log.Printf("unknown figure %d (the paper has figures 6-14)", *fig)
		}
		return 1
	}
	if err := st.Run(s, w, selector); err != nil {
		log.Print(err)
		return 1
	}
	return partialStatus(missing)
}

// partialStatus reports the missing points of a -keep-going sweep on stderr
// and selects the exit status: 0 when complete, 3 when partial.
func partialStatus(ms *experiments.MissingSet) int {
	if ms.Missing() == 0 {
		return 0
	}
	log.Printf("partial output: %d of %d points missing", ms.Missing(), ms.Total())
	for _, label := range ms.Labels() {
		log.Printf("  missing: %s", label)
	}
	return 3
}
