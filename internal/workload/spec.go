// Package workload implements a seeded, declarative workload specification:
// a versioned YAML schema that composes per-rank phases from parameterized
// kernel primitives — stride/random/stencil memory walks, FP-mix blocks
// drawn from seeded distributions, collective and point-to-point
// communication phases with bursty (gamma/weibull) repeat counts — and
// compiles them down to the same compiler/isa representation the NAS
// benchmarks use, so the compile cache, batched engine and epoch
// memoization all apply unchanged.
//
// The determinism contract: a (spec, seed, class, ranks, opts) tuple
// resolves to exactly one compiled kernel and one SPMD body, every time, on
// every host. All randomness flows from rng streams derived from the spec
// seed; decoding is strict (unknown fields, duplicate keys, malformed
// distributions and out-of-range values are errors, mirroring the server's
// JSON job decoder); and Fingerprint() canonically hashes every semantic
// field so checkpoint RunKeys, bgpd job ids and progcache keys can never
// collide across distinct specs.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bgpsim/internal/nas"
)

// Limits enforced at decode time. They bound what a hostile spec submitted
// to bgpd by value can cost before Build even runs.
const (
	// SpecVersion is the schema version this decoder accepts.
	SpecVersion = 1
	// MaxRounds bounds the outer iteration count.
	MaxRounds = 1024
	// MaxArrays and MaxPhases bound the spec's breadth.
	MaxArrays = 64
	MaxPhases = 256
	// MaxArrayBytes bounds one array's class-C footprint (1 GiB).
	MaxArrayBytes = int64(1) << 30
	// MaxRepeat bounds one phase's sampled burst length.
	MaxRepeat = 256
	// maxTrips bounds one sampled loop trip count.
	maxTrips = int64(1) << 32
	// maxOps bounds one sampled per-statement op count.
	maxOps = 1 << 16
	// maxCommBytes bounds one sampled message size (256 MiB).
	maxCommBytes = int64(1) << 28
	// MaxSpecTrips bounds a spec's cost, its worst-case machine-total loop
	// trips (see cost); the per-field limits above allow about 2^58.
	// specs/hpl.yaml costs 352 321 536 and benchmark/specs/halo.yaml
	// 67 108 864.
	MaxSpecTrips = int64(1) << 30
)

// Walk names a memory access pattern of a compute reference.
type Walk string

// The reference walks. Stencil expands to a three-point plane walk
// (unit-stride sweep plus two plane-strided neighbor reads).
const (
	WalkSeq     Walk = "seq"
	WalkStrided Walk = "strided"
	WalkRandom  Walk = "random"
	WalkStencil Walk = "stencil"
)

// CommOp names a communication phase's operation.
type CommOp string

// The communication operations. Ring and halo3d are point-to-point
// (Send/Recv) patterns; the rest are collectives.
const (
	OpBarrier   CommOp = "barrier"
	OpAllreduce CommOp = "allreduce"
	OpReduce    CommOp = "reduce"
	OpBcast     CommOp = "bcast"
	OpAlltoall  CommOp = "alltoall"
	OpRing      CommOp = "ring"
	OpHalo3D    CommOp = "halo3d"
)

// Spec is one decoded workload specification. The decoder (DecodeSpecBytes,
// and LoadSpec through it) is its only constructor: it
// validates the fields and takes their fingerprint, which a Spec built any
// other way lacks.
type Spec struct {
	// Version is the schema version (always SpecVersion once decoded).
	Version int
	// Name labels the workload; it becomes the kernel/app name.
	Name string
	// Description is a one-line summary (not part of the fingerprint's
	// semantic payload, but hashed anyway for simplicity and honesty).
	Description string
	// Seed roots every random stream of the workload.
	Seed uint64
	// Rounds is the outer iteration count (default 1). Each round
	// re-samples every phase from its own derived stream.
	Rounds int
	// Arrays is the data footprint at class C; classes scale it.
	Arrays []ArraySpec
	// Phases is the per-round phase list, executed in order.
	Phases []PhaseSpec

	// fingerprint is hash() of the decoded fields, taken once by the
	// decoder. A decoded spec is never mutated, so it stays current.
	fingerprint string
}

// ArraySpec declares one data array.
type ArraySpec struct {
	Name string
	// Bytes is the class-C footprint; Build scales it per class/ranks.
	Bytes int64
}

// PhaseSpec is one phase: exactly one of Compute or Comm is set.
type PhaseSpec struct {
	Name string
	// Repeat is the burst length: how many times the phase runs back to
	// back each round (default const 1, sampled per round; gamma/weibull
	// here model bursty inter-phase arrivals).
	Repeat Dist
	// Decay geometrically shrinks compute trip counts per round
	// (default 1 = no decay) — HPL's shrinking trailing matrix.
	Decay   float64
	Compute *ComputeSpec
	Comm    *CommSpec
}

// ComputeSpec is an FP-mix block over memory walks.
type ComputeSpec struct {
	// Trips is the loop trip count distribution (sampled per round).
	Trips Dist
	// AddSub, Mul, Div, FMA and Int are per-trip operation counts
	// (each sampled per round; default const 0).
	AddSub, Mul, Div, FMA, Int Dist
	// Vectorizable marks the block data-parallel (SIMD-eligible).
	Vectorizable bool
	// Refs are the memory references per trip.
	Refs []RefSpec
}

// RefSpec is one memory reference of a compute block.
type RefSpec struct {
	// Array names the referenced array.
	Array string
	// Walk is the access pattern.
	Walk Walk
	// Stride is the per-trip advance in bytes (defaults: seq 8,
	// strided 64, stencil 1024 = the plane stride).
	Stride int64
	// Store marks a write.
	Store bool
}

// CommSpec is a communication phase.
type CommSpec struct {
	// Op is the operation.
	Op CommOp
	// Bytes is the class-C message size distribution (sampled per
	// round); ignored by barrier.
	Bytes Dist
	// Root is the root rank of rooted collectives (reduce, bcast).
	Root int
}

// LoadSpec reads and decodes a spec file.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	s, err := DecodeSpecBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// DecodeSpecBytes strictly decodes a YAML workload spec.
func DecodeSpecBytes(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	m, ok := root.(*yamlMap)
	if !ok {
		return nil, fmt.Errorf("workload: spec document must be a mapping")
	}
	if err := checkKeys(m, "spec", "version", "name", "description", "seed",
		"rounds", "arrays", "phases"); err != nil {
		return nil, err
	}
	s := &Spec{Rounds: 1}

	ver, err := reqInt(m, "version", "spec", 0, 1<<30)
	if err != nil {
		return nil, err
	}
	if ver != SpecVersion {
		return nil, fmt.Errorf("workload: spec.version: unsupported version %d (decoder speaks %d)",
			ver, SpecVersion)
	}
	s.Version = int(ver)

	if s.Name, err = reqString(m, "name", "spec"); err != nil {
		return nil, err
	}
	if !plainKey(s.Name) {
		return nil, fmt.Errorf("workload: spec.name: %q must be a plain identifier", s.Name)
	}
	if v, ok := m.get("description"); ok {
		if s.Description, err = scalarString(v, "spec.description"); err != nil {
			return nil, err
		}
	}

	if v, ok := m.get("seed"); ok {
		str, err := scalarString(v, "spec.seed")
		if err != nil {
			return nil, err
		}
		seed, err := strconv.ParseUint(str, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: spec.seed: %q is not a uint64 (overflow or bad digits)", str)
		}
		s.Seed = seed
	}

	if _, ok := m.get("rounds"); ok {
		r, err := reqInt(m, "rounds", "spec", 1, MaxRounds)
		if err != nil {
			return nil, err
		}
		s.Rounds = int(r)
	}

	if s.Arrays, err = decodeArrays(m); err != nil {
		return nil, err
	}
	if s.Phases, err = decodePhases(m); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if c := s.cost(); c > float64(MaxSpecTrips) {
		return nil, fmt.Errorf("workload: spec.phases: worst-case cost of %.0f loop trips is above the %d-trip maximum", c, MaxSpecTrips)
	}
	s.fingerprint = s.hash()
	return s, nil
}

// cost is the spec's worst-case machine-total loop trips. Build divides a
// class's trips over the ranks, so a run executes rounds × Σ repeat × trips
// × Class.Scale() × 128 of them over its compute phases; cost takes class C,
// every repeat and trip count at its upper bound, and decay as 1.
func (s *Spec) cost() float64 {
	var perRound float64
	for _, p := range s.Phases {
		if c := p.Compute; c != nil {
			perRound += float64(p.Repeat.upperInt(0, MaxRepeat)) * float64(c.Trips.upperInt(0, maxTrips))
		}
	}
	return float64(s.Rounds) * perRound * nas.ClassC.Scale() * 128
}

// decodeArrays decodes the arrays section.
func decodeArrays(m *yamlMap) ([]ArraySpec, error) {
	v, ok := m.get("arrays")
	if !ok {
		return nil, fmt.Errorf("workload: spec: missing required key \"arrays\"")
	}
	seq, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("workload: spec.arrays: expected a sequence")
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("workload: spec.arrays: empty")
	}
	if len(seq) > MaxArrays {
		return nil, fmt.Errorf("workload: spec.arrays: %d arrays exceeds %d", len(seq), MaxArrays)
	}
	out := make([]ArraySpec, 0, len(seq))
	for i, item := range seq {
		ctx := fmt.Sprintf("spec.arrays[%d]", i)
		am, ok := item.(*yamlMap)
		if !ok {
			return nil, fmt.Errorf("workload: %s: expected a mapping", ctx)
		}
		if err := checkKeys(am, ctx, "name", "bytes"); err != nil {
			return nil, err
		}
		var a ArraySpec
		var err error
		if a.Name, err = reqString(am, "name", ctx); err != nil {
			return nil, err
		}
		b, err := reqInt(am, "bytes", ctx, 1, MaxArrayBytes)
		if err != nil {
			return nil, err
		}
		a.Bytes = b
		out = append(out, a)
	}
	return out, nil
}

// decodePhases decodes the phases section.
func decodePhases(m *yamlMap) ([]PhaseSpec, error) {
	v, ok := m.get("phases")
	if !ok {
		return nil, fmt.Errorf("workload: spec: missing required key \"phases\"")
	}
	seq, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("workload: spec.phases: expected a sequence")
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("workload: spec.phases: empty")
	}
	if len(seq) > MaxPhases {
		return nil, fmt.Errorf("workload: spec.phases: %d phases exceeds %d", len(seq), MaxPhases)
	}
	out := make([]PhaseSpec, 0, len(seq))
	for i, item := range seq {
		ctx := fmt.Sprintf("spec.phases[%d]", i)
		pm, ok := item.(*yamlMap)
		if !ok {
			return nil, fmt.Errorf("workload: %s: expected a mapping", ctx)
		}
		p, err := decodePhase(pm, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// decodePhase decodes one phase mapping.
func decodePhase(pm *yamlMap, ctx string) (PhaseSpec, error) {
	if err := checkKeys(pm, ctx, "name", "repeat", "decay", "compute", "comm"); err != nil {
		return PhaseSpec{}, err
	}
	p := PhaseSpec{Repeat: constDist(1), Decay: 1}
	var err error
	if p.Name, err = reqString(pm, "name", ctx); err != nil {
		return PhaseSpec{}, err
	}
	if v, ok := pm.get("repeat"); ok {
		if p.Repeat, err = decodeDist(v, ctx+".repeat"); err != nil {
			return PhaseSpec{}, err
		}
	}
	if d, ok, err2 := optFloat(pm, "decay", ctx); err2 != nil {
		return PhaseSpec{}, err2
	} else if ok {
		if d <= 0 || d > 1 {
			return PhaseSpec{}, fmt.Errorf("workload: %s.decay: %g outside (0, 1]", ctx, d)
		}
		p.Decay = d
	}
	cv, hasCompute := pm.get("compute")
	mv, hasComm := pm.get("comm")
	switch {
	case hasCompute && hasComm:
		return PhaseSpec{}, fmt.Errorf("workload: %s: compute and comm are mutually exclusive", ctx)
	case hasCompute:
		cm, ok := cv.(*yamlMap)
		if !ok {
			return PhaseSpec{}, fmt.Errorf("workload: %s.compute: expected a mapping", ctx)
		}
		c, err := decodeCompute(cm, ctx+".compute")
		if err != nil {
			return PhaseSpec{}, err
		}
		p.Compute = &c
	case hasComm:
		cm, ok := mv.(*yamlMap)
		if !ok {
			return PhaseSpec{}, fmt.Errorf("workload: %s.comm: expected a mapping", ctx)
		}
		c, err := decodeComm(cm, ctx+".comm")
		if err != nil {
			return PhaseSpec{}, err
		}
		p.Comm = &c
	default:
		return PhaseSpec{}, fmt.Errorf("workload: %s: needs a compute or comm section", ctx)
	}
	return p, nil
}

// decodeCompute decodes a compute section.
func decodeCompute(cm *yamlMap, ctx string) (ComputeSpec, error) {
	if err := checkKeys(cm, ctx, "trips", "fp", "vectorizable", "refs"); err != nil {
		return ComputeSpec{}, err
	}
	c := ComputeSpec{}
	v, ok := cm.get("trips")
	if !ok {
		return ComputeSpec{}, fmt.Errorf("workload: %s: missing required key \"trips\"", ctx)
	}
	var err error
	if c.Trips, err = decodeDist(v, ctx+".trips"); err != nil {
		return ComputeSpec{}, err
	}
	if fv, ok := cm.get("fp"); ok {
		fm, ok := fv.(*yamlMap)
		if !ok {
			return ComputeSpec{}, fmt.Errorf("workload: %s.fp: expected a mapping", ctx)
		}
		if err := checkKeys(fm, ctx+".fp", "addsub", "mul", "div", "fma", "int"); err != nil {
			return ComputeSpec{}, err
		}
		for _, f := range []struct {
			key string
			dst *Dist
		}{
			{"addsub", &c.AddSub}, {"mul", &c.Mul}, {"div", &c.Div},
			{"fma", &c.FMA}, {"int", &c.Int},
		} {
			if dv, ok := fm.get(f.key); ok {
				if *f.dst, err = decodeDist(dv, ctx+".fp."+f.key); err != nil {
					return ComputeSpec{}, err
				}
			} else {
				*f.dst = constDist(0)
			}
		}
	} else {
		c.AddSub, c.Mul, c.Div, c.FMA, c.Int =
			constDist(0), constDist(0), constDist(0), constDist(0), constDist(0)
	}
	if bv, ok := cm.get("vectorizable"); ok {
		s, err := scalarString(bv, ctx+".vectorizable")
		if err != nil {
			return ComputeSpec{}, err
		}
		b, err := strconv.ParseBool(s)
		if err != nil {
			return ComputeSpec{}, fmt.Errorf("workload: %s.vectorizable: %q is not a bool", ctx, s)
		}
		c.Vectorizable = b
	}
	rv, ok := cm.get("refs")
	if !ok {
		return ComputeSpec{}, fmt.Errorf("workload: %s: missing required key \"refs\"", ctx)
	}
	rseq, ok := rv.([]any)
	if !ok {
		return ComputeSpec{}, fmt.Errorf("workload: %s.refs: expected a sequence", ctx)
	}
	if len(rseq) == 0 {
		return ComputeSpec{}, fmt.Errorf("workload: %s.refs: empty", ctx)
	}
	for i, item := range rseq {
		rctx := fmt.Sprintf("%s.refs[%d]", ctx, i)
		rm, ok := item.(*yamlMap)
		if !ok {
			return ComputeSpec{}, fmt.Errorf("workload: %s: expected a mapping", rctx)
		}
		r, err := decodeRef(rm, rctx)
		if err != nil {
			return ComputeSpec{}, err
		}
		c.Refs = append(c.Refs, r)
	}
	return c, nil
}

// decodeRef decodes one memory reference.
func decodeRef(rm *yamlMap, ctx string) (RefSpec, error) {
	if err := checkKeys(rm, ctx, "array", "walk", "stride", "store"); err != nil {
		return RefSpec{}, err
	}
	r := RefSpec{Walk: WalkSeq}
	var err error
	if r.Array, err = reqString(rm, "array", ctx); err != nil {
		return RefSpec{}, err
	}
	if wv, ok := rm.get("walk"); ok {
		s, err := scalarString(wv, ctx+".walk")
		if err != nil {
			return RefSpec{}, err
		}
		r.Walk = Walk(s)
	}
	switch r.Walk {
	case WalkSeq, WalkStrided, WalkRandom, WalkStencil:
	default:
		return RefSpec{}, fmt.Errorf("workload: %s.walk: unknown walk %q (have seq, strided, random, stencil)",
			ctx, r.Walk)
	}
	if _, ok := rm.get("stride"); ok {
		st, err := reqInt(rm, "stride", ctx, 1, 1<<30)
		if err != nil {
			return RefSpec{}, err
		}
		r.Stride = st
	} else {
		switch r.Walk {
		case WalkSeq:
			r.Stride = 8
		case WalkStrided:
			r.Stride = 64
		case WalkStencil:
			r.Stride = 1024
		}
	}
	if sv, ok := rm.get("store"); ok {
		s, err := scalarString(sv, ctx+".store")
		if err != nil {
			return RefSpec{}, err
		}
		b, err := strconv.ParseBool(s)
		if err != nil {
			return RefSpec{}, fmt.Errorf("workload: %s.store: %q is not a bool", ctx, s)
		}
		r.Store = b
	}
	return r, nil
}

// decodeComm decodes a communication section.
func decodeComm(cm *yamlMap, ctx string) (CommSpec, error) {
	if err := checkKeys(cm, ctx, "op", "bytes", "root"); err != nil {
		return CommSpec{}, err
	}
	c := CommSpec{Bytes: constDist(8)}
	opStr, err := reqString(cm, "op", ctx)
	if err != nil {
		return CommSpec{}, err
	}
	c.Op = CommOp(opStr)
	switch c.Op {
	case OpBarrier, OpAllreduce, OpReduce, OpBcast, OpAlltoall, OpRing, OpHalo3D:
	default:
		return CommSpec{}, fmt.Errorf("workload: %s.op: unknown op %q (have barrier, allreduce, reduce, bcast, alltoall, ring, halo3d)",
			ctx, c.Op)
	}
	if bv, ok := cm.get("bytes"); ok {
		if c.Bytes, err = decodeDist(bv, ctx+".bytes"); err != nil {
			return CommSpec{}, err
		}
	}
	if _, ok := cm.get("root"); ok {
		if c.Op != OpReduce && c.Op != OpBcast {
			return CommSpec{}, fmt.Errorf("workload: %s.root: only reduce and bcast take a root", ctx)
		}
		root, err := reqInt(cm, "root", ctx, 0, 1<<20)
		if err != nil {
			return CommSpec{}, err
		}
		c.Root = int(root)
	}
	return c, nil
}

// Validate cross-checks the decoded spec: unique names, resolvable array
// references. Field-level range checks already happened at decode.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec: missing required key \"name\"")
	}
	arrays := make(map[string]bool, len(s.Arrays))
	for _, a := range s.Arrays {
		if arrays[a.Name] {
			return fmt.Errorf("workload: spec.arrays: duplicate array %q", a.Name)
		}
		arrays[a.Name] = true
	}
	phases := make(map[string]bool, len(s.Phases))
	for i, p := range s.Phases {
		if phases[p.Name] {
			return fmt.Errorf("workload: spec.phases[%d]: duplicate phase %q", i, p.Name)
		}
		phases[p.Name] = true
		if (p.Compute == nil) == (p.Comm == nil) {
			return fmt.Errorf("workload: spec.phases[%d] (%s): needs exactly one of compute or comm", i, p.Name)
		}
		if p.Compute != nil {
			for j, r := range p.Compute.Refs {
				if !arrays[r.Array] {
					return fmt.Errorf("workload: spec.phases[%d].compute.refs[%d]: unknown array %q",
						i, j, r.Array)
				}
			}
		}
	}
	return nil
}

// Fingerprint returns the hex sha256 of the spec's canonical encoding: a
// fixed-order text rendering of every field. Two specs fingerprint equal
// iff they decode equal, so folding this into checkpoint fingerprints (and
// through them RunKeys and bgpd job ids) and into the compiled kernel's
// name (and through it progcache keys) makes cross-spec cache collisions
// impossible. The decoder hashes once; this returns that hash.
func (s *Spec) Fingerprint() string { return s.fingerprint }

// hash is the sha256 of the canonical encoding, in hex.
func (s *Spec) hash() string {
	sum := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(sum[:])
}

// canonical renders the spec deterministically.
func (s *Spec) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload/v%d\nname=%s\ndesc=%q\nseed=%d\nrounds=%d\n",
		s.Version, s.Name, s.Description, s.Seed, s.Rounds)
	for _, a := range s.Arrays {
		fmt.Fprintf(&b, "array %s bytes=%d\n", a.Name, a.Bytes)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "phase %s repeat=%s decay=%g\n", p.Name, p.Repeat.canonical(), p.Decay)
		if c := p.Compute; c != nil {
			fmt.Fprintf(&b, "  compute trips=%s addsub=%s mul=%s div=%s fma=%s int=%s vec=%t\n",
				c.Trips.canonical(), c.AddSub.canonical(), c.Mul.canonical(),
				c.Div.canonical(), c.FMA.canonical(), c.Int.canonical(), c.Vectorizable)
			for _, r := range c.Refs {
				fmt.Fprintf(&b, "  ref %s walk=%s stride=%d store=%t\n", r.Array, r.Walk, r.Stride, r.Store)
			}
		}
		if c := p.Comm; c != nil {
			fmt.Fprintf(&b, "  comm op=%s bytes=%s root=%d\n", c.Op, c.Bytes.canonical(), c.Root)
		}
	}
	return b.String()
}

// scalarString requires v to be a string scalar.
func scalarString(v any, ctx string) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("workload: %s: expected a scalar", ctx)
	}
	return s, nil
}

// reqString fetches a required string field.
func reqString(m *yamlMap, key, ctx string) (string, error) {
	v, ok := m.get(key)
	if !ok {
		return "", fmt.Errorf("workload: %s: missing required key %q", ctx, key)
	}
	return scalarString(v, ctx+"."+key)
}

// reqInt fetches a required integer field in [lo, hi].
func reqInt(m *yamlMap, key, ctx string, lo, hi int64) (int64, error) {
	s, err := reqString(m, key, ctx)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: %s.%s: %q is not an integer", ctx, key, s)
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("workload: %s.%s: %d outside [%d, %d]", ctx, key, n, lo, hi)
	}
	return n, nil
}

// checkKeys rejects keys outside the allowed set — the YAML analogue of
// json.Decoder.DisallowUnknownFields.
func checkKeys(m *yamlMap, ctx string, allowed ...string) error {
	for _, k := range m.keys {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("workload: %s: unknown field %q", ctx, k)
		}
	}
	return nil
}
