// Package cliflags declares, once, the flags the batch commands (bgprun,
// bgpsweep, bgpreport) share — a flag's name, default and help string exist
// here and nowhere else — and acts on them: the execution and checkpoint
// groups land directly in an experiments.Scale, the observability and
// profiling groups are started and stopped around the command's work. bgpd
// takes the two shared flags a daemon has a use for from the same
// declarations.
package cliflags

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"bgpsim/internal/epochmemo"
	"bgpsim/internal/experiments"
	"bgpsim/internal/obs"
)

// Flags is the bound flag set: what Bind registered beyond the Scale fields.
type Flags struct {
	scale      *experiments.Scale
	memoBudget func()

	trace, metricsAddr, cpuProfile, memProfile string
}

// Bind registers the four shared flag groups on fs. Parsing fs fills s's
// execution and checkpoint fields; Start acts on the rest.
func Bind(fs *flag.FlagSet, s *experiments.Scale) *Flags {
	f := &Flags{scale: s}

	// Execution: how the host computes a run. None of these can change a
	// counter, a dump byte or a checkpoint key.
	fs.BoolVar(&s.NoProgCache, "no-progcache", false, "disable cross-run compile memoization; results do not depend on it")
	fs.BoolVar(&s.NoEpochMemo, "no-epochmemo", false, "disable the epoch memo (reruns of a run identity replaying its recorded epochs); results do not depend on it")
	f.memoBudget = MemoBudget(fs)

	// Checkpointing.
	CheckpointDir(fs, &s.CheckpointDir, "")

	// Observability.
	fs.StringVar(&f.trace, "trace", "", "write a Chrome-trace JSONL of sim-cycle spans (ranks, kernels, collectives) to this file")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve the metrics registry over HTTP at this address (e.g. localhost:8080)")

	// Profiling.
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the command to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	return f
}

// MemoBudget registers -epochmemo-bytes on fs and returns the function
// that applies the parsed value to the process-wide epoch memo. The budget
// is a property of the process: apply it once, after parsing and before the
// first run.
func MemoBudget(fs *flag.FlagSet) (apply func()) {
	n := fs.Int64("epochmemo-bytes", 0, "epoch memo LRU byte budget: >0 sets it, <0 unbounded, 0 keeps the 256 MiB default; results do not depend on it")
	return func() {
		switch {
		case *n > 0:
			epochmemo.Default().SetBudget(*n)
		case *n < 0:
			epochmemo.Default().SetBudget(0)
		}
	}
}

// CheckpointDir registers -checkpoint on fs, storing into p with the given
// default.
func CheckpointDir(fs *flag.FlagSet, p *string, def string) {
	fs.StringVar(p, "checkpoint", def, "restore valid runs from this directory and persist each executed one there")
}

// Start acts on the parsed flags: it sizes the epoch memo, attaches the
// tracer and metrics endpoint as the scale's Observer, and starts the CPU
// profile. The returned stop function writes the heap profile, stops the
// CPU profile and flushes the trace; the command calls it (typically
// deferred) before exiting.
func (f *Flags) Start() (stop func(), err error) {
	s := f.scale
	f.memoBudget()
	observer, obsClose, err := obs.SetupCLI(f.trace, f.metricsAddr, log.Printf)
	if err != nil {
		return nil, err
	}
	s.Observer = observer
	var cpu *os.File
	if f.cpuProfile != "" {
		if cpu, err = os.Create(f.cpuProfile); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			obsClose()
			return nil, err
		}
	}
	return func() {
		if f.memProfile != "" {
			heap, err := os.Create(f.memProfile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(heap)
				if cerr := heap.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				log.Print(err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Print(err)
			}
		}
		obsClose()
	}, nil
}
