package compiler

import (
	"fmt"
	"strings"

	"bgpsim/internal/isa"
)

// Level is the XL optimization level of a build.
type Level uint8

// Optimization levels, matching §VI of the paper.
const (
	// O0 is the baseline "-O -qstrict" build: common-subexpression
	// elimination and code motion only; FMA chains stay un-fused and no
	// SIMD code is generated.
	O0 Level = iota
	// O3 adds strength reduction, aggressive code motion and 2-way
	// unrolling, and fuses multiply-add chains onto the FMA unit.
	O3
	// O4 adds -qtune/-qcache/-qhot: 4-way unrolling and loop
	// optimizations driven by processor-specific information.
	O4
	// O5 adds inter-procedural analysis, eliminating most remaining
	// address arithmetic and enabling the widest SIMD coverage.
	O5
)

var levelNames = [...]string{O0: "-O -qstrict", O3: "-O3", O4: "-O4", O5: "-O5"}

// String returns the flag spelling of the level.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Options selects a build configuration.
type Options struct {
	// Level is the optimization level.
	Level Level
	// Arch440d enables the -qarch=440d SIMD pass, which extracts
	// data-parallel statements onto the double-hummer FPU and coalesces
	// their paired loads/stores into quad accesses. It has no effect
	// below -O3, matching how the paper applies it.
	Arch440d bool
}

// String returns the flag spelling of the options ("-O5 -qarch=440d").
func (o Options) String() string {
	s := o.Level.String()
	if o.Arch440d {
		s += " -qarch=440d"
	}
	return s
}

// ParseOptions parses spellings like "O5", "-O3", "O4+440d",
// "-O5 -qarch=440d", "O0". It accepts the forms the command-line tools
// print.
func ParseOptions(s string) (Options, error) {
	var o Options
	t := strings.ToLower(strings.TrimSpace(s))
	t = strings.ReplaceAll(t, "-qarch=440d", "+440d")
	t = strings.ReplaceAll(t, "qarch440d", "440d")
	t = strings.ReplaceAll(t, " ", "")
	if strings.Contains(t, "440d") {
		o.Arch440d = true
		t = strings.ReplaceAll(t, "+440d", "")
		t = strings.ReplaceAll(t, "440d", "")
	}
	t = strings.TrimPrefix(t, "-")
	t = strings.TrimSuffix(t, "-qstrict")
	switch t {
	case "o0", "o", "oqstrict", "":
		o.Level = O0
	case "o3":
		o.Level = O3
	case "o4":
		o.Level = O4
	case "o5":
		o.Level = O5
	default:
		return Options{}, fmt.Errorf("compiler: unknown optimization %q", s)
	}
	return o, nil
}

// AllOptions returns the eight build configurations of the paper's
// compiler study, in presentation order.
func AllOptions() []Options {
	return []Options{
		{O0, false},
		{O3, false}, {O3, true},
		{O4, false}, {O4, true},
		{O5, false}, {O5, true},
		{O0, true}, // flag ignored below -O3; kept to show it is inert
	}
}

// levelTraits are the per-level lowering parameters.
type levelTraits struct {
	fuse      bool    // fuse Mul+Add chains into FMA
	unroll    int64   // unroll factor (loop-control dilution)
	intPerRef float64 // address-arithmetic ops per memory reference
	loopInt   int     // loop-control integer ops per control trip
	vecFrac   float64 // fraction of vectorizable trips SIMD-ized (with -qarch=440d)
	strideOpt bool    // -qhot loop interchange: strided sweeps become line-sequential
}

var traits = [...]levelTraits{
	O0: {fuse: false, unroll: 1, intPerRef: 1.0, loopInt: 1, vecFrac: 0},
	O3: {fuse: true, unroll: 2, intPerRef: 0.75, loopInt: 1, vecFrac: 0.60},
	O4: {fuse: true, unroll: 4, intPerRef: 0.5, loopInt: 1, vecFrac: 0.85, strideOpt: true},
	O5: {fuse: true, unroll: 4, intPerRef: 0.25, loopInt: 1, vecFrac: 0.98, strideOpt: true},
}

// lineBytes is the L3 line size the -qhot interchange normalizes strided
// sweeps to (one line per iteration, which the prefetch engines follow).
const lineBytes = 128

// Compile lowers one phase of the kernel to an executable program under the
// given options. Array i of the kernel becomes region i of every compiled
// phase, so phases of the same kernel share their data footprint when bound
// in order by the same rank.
func Compile(k *Kernel, phase string, opts Options) (*isa.Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	ph := k.PhaseByName(phase)
	if ph == nil {
		return nil, fmt.Errorf("compiler: kernel %q has no phase %q", k.Name, phase)
	}
	tr := traits[opts.Level]
	simd := opts.Arch440d && opts.Level >= O3

	p := &isa.Program{
		Name:  k.Name + "." + phase + " " + opts.String(),
		Group: k.Name,
	}
	p.Regions = make([]isa.Region, len(k.Arrays))
	for i, a := range k.Arrays {
		p.Regions[i] = isa.Region{Name: a.Name, Size: a.Bytes}
	}

	for _, l := range ph.Loops {
		lowerLoop(p, &l, tr, simd)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: internal error lowering %q: %v", p.Name, err)
	}
	return p, nil
}

// MustCompile is Compile for statically known-good kernels.
func MustCompile(k *Kernel, phase string, opts Options) *isa.Program {
	p, err := Compile(k, phase, opts)
	if err != nil {
		panic(err)
	}
	return p
}

func lowerLoop(p *isa.Program, l *LoopNest, tr levelTraits, simd bool) {
	if l.Trips == 0 || len(l.Stmts) == 0 {
		return
	}
	vectorizable := false
	for _, s := range l.Stmts {
		if s.Vectorizable {
			vectorizable = true
			break
		}
	}

	var vecPairs, scalarTrips int64
	if simd && vectorizable {
		vecTrips := int64(tr.vecFrac * float64(l.Trips))
		vecPairs = vecTrips / 2
		scalarTrips = l.Trips - vecPairs*2
	} else {
		scalarTrips = l.Trips
	}

	if vecPairs > 0 {
		body := buildBody(l.Stmts, tr, true)
		p.Loops = append(p.Loops, isa.Loop{
			Name:  l.Name + ".simd",
			Trips: vecPairs,
			Body:  body,
		})
	}
	if scalarTrips > 0 {
		body := buildBody(l.Stmts, tr, false)
		p.Loops = append(p.Loops, isa.Loop{
			Name:  l.Name + ".scalar",
			Trips: scalarTrips,
			Body:  body,
		})
	}

	// Loop control, diluted by the unroll factor: one branch plus the
	// level's control integers per unrolled trip.
	ctrlTrips := l.Trips / tr.unroll
	if ctrlTrips == 0 {
		ctrlTrips = 1
	}
	ctrl := isa.Loop{Name: l.Name + ".ctrl", Trips: ctrlTrips}
	for i := 0; i < tr.loopInt; i++ {
		ctrl.Body = append(ctrl.Body, isa.Op{Class: isa.IntALU})
	}
	ctrl.Body = append(ctrl.Body, isa.Op{Class: isa.Branch})
	p.Loops = append(p.Loops, ctrl)
}

// buildBody emits one loop body. In vector form a trip represents two
// source iterations: vectorizable statements emit SIMD ops and quad
// accesses, non-vectorizable ones emit doubled scalar ops with interleaved
// address streams.
func buildBody(stmts []Stmt, tr levelTraits, vector bool) []isa.Op {
	var body []isa.Op
	refs := 0

	emitFP := func(class isa.Class, n int) {
		for i := 0; i < n; i++ {
			body = append(body, isa.Op{Class: class})
		}
	}
	emitInt := func(s Stmt, srcIters int) {
		for i := 0; i < s.Int*srcIters; i++ {
			body = append(body, isa.Op{Class: isa.IntALU})
		}
	}
	emitRef := func(ref Ref, quad bool, copies int, interchange bool) {
		var class isa.Class
		switch {
		case quad && ref.Store:
			class = isa.QuadStore
		case quad:
			class = isa.QuadLoad
		case ref.Store:
			class = isa.Store
		default:
			class = isa.Load
		}
		pat, stride := ref.Pat, ref.Stride
		if interchange && tr.strideOpt && pat == isa.Strided && (stride > lineBytes || stride < -lineBytes) {
			// -qhot interchanges the loop nest so the sweep walks
			// memory one line per iteration; the prefetch engines can
			// then follow it. Interchange is legal exactly where
			// vectorization is: the statement carries no loop
			// dependence (the line-solve recurrences of SP/BT keep
			// their column strides).
			pat, stride = isa.Seq, lineBytes
		}
		if vector && (pat == isa.Seq || pat == isa.Strided) {
			stride *= 2 // a trip covers two source iterations
		}
		for c := 0; c < copies; c++ {
			body = append(body, isa.Op{
				Class:  class,
				Pat:    pat,
				Region: isa.RegionID(ref.Array),
				Stride: stride,
				Offset: int64(c) * stride / int64(copies),
			})
			refs++
		}
	}

	for _, s := range stmts {
		switch {
		case vector && s.Vectorizable:
			// Two source iterations fold into one SIMD trip.
			emitFP(isa.FPSIMDFMA, fmaCount(s, tr))
			emitFP(isa.FPSIMDAddSub, addSubCount(s, tr))
			emitFP(isa.FPSIMDMult, mulCount(s, tr))
			emitFP(isa.FPSIMDDiv, s.Div)
			emitInt(s, 2)
			for _, ref := range s.Refs {
				if ref.Pat == isa.Random {
					emitRef(ref, false, 2, true) // gathers cannot coalesce
				} else {
					emitRef(ref, true, 1, true)
				}
			}
		case vector:
			// Non-vectorizable statement inside a vectorized loop:
			// doubled scalar work.
			emitFP(isa.FPFMA, 2*fmaCount(s, tr))
			emitFP(isa.FPAddSub, 2*addSubCount(s, tr))
			emitFP(isa.FPMult, 2*mulCount(s, tr))
			emitFP(isa.FPDiv, 2*s.Div)
			emitInt(s, 2)
			for _, ref := range s.Refs {
				emitRef(ref, false, 2, s.Vectorizable)
			}
		default:
			emitFP(isa.FPFMA, fmaCount(s, tr))
			emitFP(isa.FPAddSub, addSubCount(s, tr))
			emitFP(isa.FPMult, mulCount(s, tr))
			emitFP(isa.FPDiv, s.Div)
			emitInt(s, 1)
			for _, ref := range s.Refs {
				emitRef(ref, false, 1, s.Vectorizable)
			}
		}
	}

	// Address arithmetic scaled by the level's strength-reduction power.
	ints := int(tr.intPerRef*float64(refs) + 0.5)
	for i := 0; i < ints; i++ {
		body = append(body, isa.Op{Class: isa.IntALU})
	}
	return body
}

// fmaCount returns the FMA instructions a statement emits per source
// iteration at this level (0 when fusion is off: the chains un-fuse).
func fmaCount(s Stmt, tr levelTraits) int {
	if tr.fuse {
		return s.FMA
	}
	return 0
}

// addSubCount includes un-fused adds below -O3.
func addSubCount(s Stmt, tr levelTraits) int {
	if tr.fuse {
		return s.AddSub
	}
	return s.AddSub + s.FMA
}

// mulCount includes un-fused multiplies below -O3.
func mulCount(s Stmt, tr levelTraits) int {
	if tr.fuse {
		return s.Mul
	}
	return s.Mul + s.FMA
}
