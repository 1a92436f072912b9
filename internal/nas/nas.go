// Package nas implements the NAS Parallel Benchmarks (MG, FT, EP, CG, IS,
// LU, SP, BT) as virtual-ISA workloads for the simulated Blue Gene/P. Each
// benchmark is authored once in the compiler package's kernel IR — loop
// nests with per-statement floating-point mixes, memory reference patterns
// and vectorizability, following the documented structure of the NPB 2
// kernels — and its MPI communication pattern (halo exchanges, transposes,
// reductions) drives the simulated torus and collective networks.
//
// Problem classes scale the per-rank footprint and work: class C is tuned
// so that a per-node working set saturates around a 4 MB L3, the regime the
// paper characterizes; classes S through B shrink footprint and trip counts
// geometrically for fast tests.
//
// The figures of the paper emerge from benchmark properties set here: MG
// and FT are highly data-parallel (large SIMD shares in Figures 6–8); EP,
// CG, IS, LU, SP and BT are dominated by scalar fused multiply-adds; FT and
// IS have the largest per-rank footprints and all-to-all communication, the
// combination behind their >4× DDR-traffic ratios in Figure 12.
package nas

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
	"bgpsim/internal/mpi"
	"bgpsim/internal/progcache"
)

// Class is a NAS problem class.
type Class uint8

// Problem classes, smallest to largest.
const (
	ClassS Class = iota
	ClassW
	ClassA
	ClassB
	ClassC
)

var classNames = [...]string{ClassS: "S", ClassW: "W", ClassA: "A", ClassB: "B", ClassC: "C"}

// String returns the single-letter class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass parses a single-letter class name.
func ParseClass(s string) (Class, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "S":
		return ClassS, nil
	case "W":
		return ClassW, nil
	case "A":
		return ClassA, nil
	case "B":
		return ClassB, nil
	case "C":
		return ClassC, nil
	}
	return 0, fmt.Errorf("nas: unknown class %q", s)
}

// Scale returns the linear work/footprint factor of the class relative to
// class C.
func (c Class) Scale() float64 {
	switch c {
	case ClassS:
		return 1.0 / 256
	case ClassW:
		return 1.0 / 64
	case ClassA:
		return 1.0 / 16
	case ClassB:
		return 1.0 / 4
	default:
		return 1
	}
}

// Config selects one benchmark run.
type Config struct {
	// Class is the problem class.
	Class Class
	// Ranks is the requested MPI process count. Benchmarks with grid
	// constraints (SP, BT need square counts) round it down; App.Ranks
	// holds the count actually used.
	Ranks int
	// Opts is the compiler build configuration.
	Opts compiler.Options
	// Cache, when non-nil, memoizes compilation: phase programs are
	// looked up by content fingerprint and shared (immutably) across
	// builds instead of re-lowered. A nil Cache compiles directly.
	Cache *progcache.Cache
	// OnCompile, when non-nil, observes the build's single compile-cache
	// lookup: cacheHit is true when the phase map came from Cache, false
	// when this build compiled it (always false with a nil Cache). It is
	// called once per successful Build.
	OnCompile func(cacheHit bool)
}

// App is a built benchmark ready to run: hand App.Body to mpi.Job.Run with
// App.Ranks processes.
type App struct {
	// Name is the benchmark name.
	Name string
	// Ranks is the process count the app must be launched with.
	Ranks int
	// Kernel is the authored IR (exposed for instruction-mix analysis).
	Kernel *compiler.Kernel
	// Body is the per-rank program.
	Body func(r *mpi.Rank)
}

// Benchmark is one NAS benchmark.
type Benchmark struct {
	// Name is the lowercase benchmark name ("mg", "ft", ...).
	Name string
	// Description is a one-line summary.
	Description string
	// RanksFor maps a requested rank count to the count the benchmark
	// can actually use (identity for most; largest square for SP/BT).
	RanksFor func(requested int) int
	// Build compiles the benchmark for a configuration.
	Build func(cfg Config) (*App, error)
}

var registry = map[string]*Benchmark{}
var registryOrder []string

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("nas: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
	registryOrder = append(registryOrder, b.Name)
}

// All returns every benchmark in the suite's canonical order
// (MG, FT, EP, CG, IS, LU, SP, BT — the order of the paper's §V).
func All() []*Benchmark {
	names := append([]string(nil), registryOrder...)
	sort.Slice(names, func(i, j int) bool {
		return canonicalIndex(names[i]) < canonicalIndex(names[j])
	})
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

var canonicalOrder = []string{"mg", "ft", "ep", "cg", "is", "lu", "sp", "bt"}

func canonicalIndex(name string) int {
	for i, n := range canonicalOrder {
		if n == name {
			return i
		}
	}
	return len(canonicalOrder)
}

// ByName returns the named benchmark (case-insensitive).
func ByName(name string) (*Benchmark, error) {
	b, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("nas: unknown benchmark %q (have %s)",
			name, strings.Join(registryOrder, ", "))
	}
	return b, nil
}

// identityRanks is the RanksFor of benchmarks without grid constraints.
func identityRanks(requested int) int { return requested }

// squareRanks returns the largest perfect square not exceeding requested —
// SP and BT require square process counts (the paper runs them with 121 of
// the 128 available processes).
func squareRanks(requested int) int {
	if requested < 1 {
		return 1
	}
	s := int(math.Sqrt(float64(requested)))
	for (s+1)*(s+1) <= requested {
		s++
	}
	for s*s > requested {
		s--
	}
	return s * s
}

// perRank converts a class-C per-rank quantity calibrated at 128 ranks to
// the per-rank quantity of this run: the total problem size is fixed per
// class, so fewer ranks mean proportionally more work and footprint each —
// exactly how the NPB divide a fixed grid over the process count.
func perRank(classCAt128 int64, c Class, nranks int, min int64) int64 {
	v := int64(float64(classCAt128) * c.Scale() * 128.0 / float64(nranks))
	if v < min {
		v = min
	}
	return v
}

// scaled applies the class factor to a class-C quantity, with a floor.
func scaled(classC int64, c Class, min int64) int64 {
	v := int64(float64(classC) * c.Scale())
	if v < min {
		v = min
	}
	return v
}

// surfaceScaled applies the 2/3-power class factor used for halo surfaces.
func surfaceScaled(classC int64, c Class, min int64) int64 {
	v := int64(float64(classC) * math.Pow(c.Scale(), 2.0/3.0))
	if v < min {
		v = min
	}
	return v
}

// CompilePhases compiles every phase of a kernel once, returning them by
// phase name. The resulting programs are shared by all ranks (each rank
// binds its own execution state). With a cache configured, the whole phase
// map is memoized by content fingerprint and shared across builds — the
// programs are immutable after compilation, so sharing is safe at any
// sweep worker count. Every kernel source goes through it (the benchmarks
// here, compiled workload specs in internal/workload), so OnCompile hit/miss
// attribution means the same thing for all of them.
func CompilePhases(k *compiler.Kernel, cfg Config) (map[string]*isa.Program, error) {
	build := func() (map[string]*isa.Program, error) {
		out := make(map[string]*isa.Program, len(k.Phases))
		for _, ph := range k.Phases {
			p, err := compiler.Compile(k, ph.Name, cfg.Opts)
			if err != nil {
				return nil, err
			}
			out[ph.Name] = p
		}
		return out, nil
	}
	if cfg.Cache == nil {
		out, err := build()
		if err == nil && cfg.OnCompile != nil {
			cfg.OnCompile(false)
		}
		return out, err
	}
	out, hit, err := progcache.GetOrCompile(cfg.Cache, progcache.Key(k, cfg.Opts), build)
	if err == nil && cfg.OnCompile != nil {
		cfg.OnCompile(hit)
	}
	return out, err
}
