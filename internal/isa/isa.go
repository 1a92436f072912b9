// Package isa defines the virtual instruction-set architecture that connects
// the compiler and workload layers to the simulated PowerPC 450 cores.
//
// Real Blue Gene/P executables are PowerPC machine code; this reproduction
// replaces them with compact op streams: every dynamic instruction the
// performance counters can distinguish (integer ALU, branch, load/store,
// quad load/store, and the seven floating-point classes of the double-hummer
// FPU) is represented by an Op inside a counted Loop. Cores execute these
// streams, charge cycles, and pulse the same hardware events a real node
// would, so the Universal Performance Counter unit observes an equivalent
// execution.
package isa

import "fmt"

// Class identifies the architectural class of a dynamic operation. The
// classes mirror the event sources of the Blue Gene/P FPU and load/store
// units: they are exactly the categories the paper's Figure 6 instruction
// profile distinguishes, plus the integer/branch/memory classes needed for
// cycle accounting.
type Class uint8

// Operation classes of the virtual ISA.
const (
	// IntALU is an integer arithmetic/logic or address-generation op.
	IntALU Class = iota
	// Branch is a conditional or unconditional branch.
	Branch
	// Load is a scalar (double-word, 8-byte) load.
	Load
	// Store is a scalar (double-word, 8-byte) store.
	Store
	// QuadLoad is a 16-byte load feeding both SIMD register files. The
	// -qarch=440d compiler flag introduces these ("quadloads").
	QuadLoad
	// QuadStore is a 16-byte store draining both SIMD register files.
	QuadStore
	// FPAddSub is a scalar floating-point add or subtract.
	FPAddSub
	// FPMult is a scalar floating-point multiply.
	FPMult
	// FPDiv is a scalar floating-point divide.
	FPDiv
	// FPFMA is a scalar fused multiply-add (2 flops).
	FPFMA
	// FPSIMDAddSub is a SIMD add/subtract on both pipes (2 flops).
	FPSIMDAddSub
	// FPSIMDMult is a SIMD multiply on both pipes (2 flops).
	FPSIMDMult
	// FPSIMDDiv is a SIMD divide on both pipes (2 flops).
	FPSIMDDiv
	// FPSIMDFMA is a SIMD fused multiply-add on both pipes (4 flops);
	// the op that lets a node reach its 13.6 GFLOPS peak.
	FPSIMDFMA

	// NumClasses is the number of operation classes.
	NumClasses
)

var classNames = [NumClasses]string{
	IntALU:       "IntALU",
	Branch:       "Branch",
	Load:         "Load",
	Store:        "Store",
	QuadLoad:     "QuadLoad",
	QuadStore:    "QuadStore",
	FPAddSub:     "FPAddSub",
	FPMult:       "FPMult",
	FPDiv:        "FPDiv",
	FPFMA:        "FPFMA",
	FPSIMDAddSub: "FPSIMDAddSub",
	FPSIMDMult:   "FPSIMDMult",
	FPSIMDDiv:    "FPSIMDDiv",
	FPSIMDFMA:    "FPSIMDFMA",
}

// String returns the mnemonic of the class.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

var classFlops = [NumClasses]int{
	FPAddSub:     1,
	FPMult:       1,
	FPDiv:        1,
	FPFMA:        2,
	FPSIMDAddSub: 2,
	FPSIMDMult:   2,
	FPSIMDDiv:    2,
	FPSIMDFMA:    4,
}

// Flops returns the number of floating-point operations one dynamic
// instance of the class performs (0 for non-FP classes).
func (c Class) Flops() int { return classFlops[c] }

// IsFP reports whether the class executes on the floating-point unit.
func (c Class) IsFP() bool { return c >= FPAddSub }

// IsSIMD reports whether the class is a SIMD (double-hummer paired) op.
func (c Class) IsSIMD() bool { return c >= FPSIMDAddSub }

// IsMem reports whether the class accesses memory.
func (c Class) IsMem() bool { return c >= Load && c <= QuadStore }

// IsLoad reports whether the class reads memory.
func (c Class) IsLoad() bool { return c == Load || c == QuadLoad }

// IsStore reports whether the class writes memory.
func (c Class) IsStore() bool { return c == Store || c == QuadStore }

// AccessBytes returns the number of bytes one dynamic instance of a memory
// class moves (0 for non-memory classes).
func (c Class) AccessBytes() int {
	switch c {
	case Load, Store:
		return 8
	case QuadLoad, QuadStore:
		return 16
	}
	return 0
}

// Pattern describes how successive dynamic instances of a memory op walk
// their region. The pattern is what the cache hierarchy (and therefore the
// L2 stream prefetcher and the L3 capacity behaviour) reacts to.
type Pattern uint8

// Memory-access patterns.
const (
	// None marks a non-memory op.
	None Pattern = iota
	// Seq walks the region with the op's stride, wrapping at the region
	// end. Stream prefetchers recognize it.
	Seq
	// Strided is like Seq with a stride larger than a cache line,
	// defeating adjacent-line reuse (FFT transposes, matrix columns).
	Strided
	// Random draws each address uniformly from the region (sparse
	// gathers, bucket scatters).
	Random
)

var patternNames = [...]string{None: "None", Seq: "Seq", Strided: "Strided", Random: "Random"}

// String returns the name of the pattern.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// RegionID names one of a program's memory regions (arrays).
type RegionID int

// Region describes one logical array of a program. Base addresses are
// assigned when the program is bound to a rank's address space.
type Region struct {
	// Name labels the region for diagnostics.
	Name string
	// Size is the extent of the region in bytes.
	Size uint64
}

// Op is one static operation of a loop body; each loop trip executes one
// dynamic instance of it.
type Op struct {
	// Class is the operation class.
	Class Class
	// Pat is the access pattern (None unless Class.IsMem()).
	Pat Pattern
	// Region is the memory region accessed (memory ops only).
	Region RegionID
	// Stride is the per-trip address increment in bytes (Seq/Strided).
	Stride int64
	// Offset is the initial region offset of the op's address cursor;
	// unrolled loop bodies use it to interleave their copies' streams.
	Offset int64
}

// Coalescible reports whether a memory op's address stream can be
// line-coalesced: successive dynamic instances stay within one cache line
// of lineBytes for a statically computable number of trips. Sequential and
// strided walks qualify when the stride is smaller than a line (several
// trips per line) or when the whole region fits in one line (every trip on
// the same line). Random patterns never qualify — their addresses must be
// drawn one per trip to keep the RNG stream aligned with interpretation.
// It is the predicate the core's batched engine routes a loop by.
func (op *Op) Coalescible(regionSize uint64, lineBytes int64) bool {
	if !op.Class.IsMem() {
		return true
	}
	switch op.Pat {
	case Seq, Strided:
		if regionSize <= uint64(lineBytes) {
			return true
		}
		s := op.Stride
		if s < 0 {
			s = -s
		}
		return s < lineBytes
	default:
		return false
	}
}

// Loop is a counted loop: the ops of Body execute once per trip, Trips
// times. It is the unit in which compiled kernels describe work.
type Loop struct {
	// Name labels the loop for diagnostics (e.g. "mg.resid.l2").
	Name string
	// Body is the loop body in program order.
	Body []Op
	// Trips is the dynamic trip count.
	Trips int64
}

// Version identifies the generation of the virtual ISA. It participates in
// content-addressed program cache keys (internal/progcache): bump it
// whenever a change to op semantics or lowering would make a previously
// cached program stale even though its kernel IR and compiler options are
// unchanged.
const Version = 1

// Program is a compiled, executable phase of a kernel: a set of memory
// regions and a sequence of counted loops over them. A benchmark alternates
// Program executions with message-passing operations.
type Program struct {
	// Name labels the program (e.g. "ft.fft-pass").
	Name string
	// Group identifies programs that share one data footprint: all
	// phases compiled from the same kernel carry the kernel's name here
	// and must be bound over the same region layout.
	Group string
	// Regions lists the memory regions loops may reference.
	Regions []Region
	// Loops is the executable body in order.
	Loops []Loop
}

// Validate checks internal consistency: every memory op must name a valid
// region and carry a pattern, and every non-memory op must not.
func (p *Program) Validate() error {
	for li := range p.Loops {
		l := &p.Loops[li]
		if l.Trips < 0 {
			return fmt.Errorf("isa: program %q loop %q: negative trip count %d", p.Name, l.Name, l.Trips)
		}
		for oi, op := range l.Body {
			if op.Class >= NumClasses {
				return fmt.Errorf("isa: program %q loop %q op %d: invalid class %d", p.Name, l.Name, oi, op.Class)
			}
			if op.Class.IsMem() {
				if op.Pat == None {
					return fmt.Errorf("isa: program %q loop %q op %d: memory op without pattern", p.Name, l.Name, oi)
				}
				if int(op.Region) < 0 || int(op.Region) >= len(p.Regions) {
					return fmt.Errorf("isa: program %q loop %q op %d: region %d out of range", p.Name, l.Name, oi, op.Region)
				}
				if (op.Pat == Seq || op.Pat == Strided) && op.Stride == 0 {
					return fmt.Errorf("isa: program %q loop %q op %d: sequential op with zero stride", p.Name, l.Name, oi)
				}
			} else if op.Pat != None {
				return fmt.Errorf("isa: program %q loop %q op %d: non-memory op with pattern %v", p.Name, l.Name, oi, op.Pat)
			}
		}
	}
	return nil
}

// Mix tallies dynamic operation counts by class.
type Mix [NumClasses]uint64

// Add accumulates n dynamic instances of class c.
func (m *Mix) Add(c Class, n uint64) { m[c] += n }

// Merge adds every count of other into m.
func (m *Mix) Merge(other *Mix) {
	for c := range m {
		m[c] += other[c]
	}
}

// Total returns the total dynamic op count.
func (m Mix) Total() uint64 {
	var t uint64
	for _, n := range m {
		t += n
	}
	return t
}

// Flops returns the total floating-point operation count of the mix.
func (m Mix) Flops() uint64 {
	var f uint64
	for c, n := range m {
		f += n * uint64(Class(c).Flops())
	}
	return f
}

// FPInstructions returns the number of dynamic FP instructions (not flops).
func (m Mix) FPInstructions() uint64 {
	var t uint64
	for c := FPAddSub; c < NumClasses; c++ {
		t += m[c]
	}
	return t
}

// SIMDInstructions returns the number of dynamic SIMD FP instructions.
func (m Mix) SIMDInstructions() uint64 {
	var t uint64
	for c := FPSIMDAddSub; c < NumClasses; c++ {
		t += m[c]
	}
	return t
}

// SIMDShare returns the fraction of FP instructions that are SIMD,
// or 0 when the mix has no FP instructions.
func (m Mix) SIMDShare() float64 {
	fp := m.FPInstructions()
	if fp == 0 {
		return 0
	}
	return float64(m.SIMDInstructions()) / float64(fp)
}

// DynamicMix returns the dynamic op counts the program will produce when
// executed once (loop bodies multiplied by trip counts).
func (p *Program) DynamicMix() Mix {
	var m Mix
	for _, l := range p.Loops {
		for _, op := range l.Body {
			m.Add(op.Class, uint64(l.Trips))
		}
	}
	return m
}
