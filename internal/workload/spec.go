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
//
// The schema is declared once, as struct tags on the Spec types; one walker
// (decode) reads the parsed YAML tree against them, and each type's check
// method holds the rules a tag cannot state.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"bgpsim/internal/nas"
)

// Limits enforced at decode time. They bound what a hostile spec submitted
// to bgpd by value can cost before Build even runs. Each field's own bounds
// (rounds, array count and size, stride, root) sit in its range tag.
const (
	// SpecVersion is the schema version this decoder accepts.
	SpecVersion = 1
	// MaxRepeat bounds one phase's sampled burst length.
	MaxRepeat = 256
	// maxTrips bounds one sampled loop trip count.
	maxTrips = int64(1) << 32
	// maxOps bounds one sampled per-statement op count.
	maxOps = 1 << 16
	// maxCommBytes bounds one sampled message size (256 MiB).
	maxCommBytes = int64(1) << 28
	// MaxSpecTrips bounds a spec's cost, its worst-case machine-total loop
	// trips (see cost); the per-field limits allow about 2^58.
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

// walkStride is each walk's default stride; its keys are the known walks.
var walkStride = map[Walk]int64{WalkSeq: 8, WalkStrided: 64, WalkRandom: 0, WalkStencil: 1024}

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
//
// The struct tags are the schema the decoder walks: yaml names a field's
// key (",required" when it must be present), range bounds an integer's
// value or a sequence's length (an empty upper bound is none), and default
// is the YAML an absent key decodes as.
type Spec struct {
	// Version is the schema version (always SpecVersion once decoded).
	Version int `yaml:"version,required" range:"0,1073741824"`
	// Name labels the workload; it becomes the kernel/app name.
	Name string `yaml:"name,required"`
	// Description is a one-line summary (not part of the fingerprint's
	// semantic payload, but hashed anyway for simplicity and honesty).
	Description string `yaml:"description"`
	// Seed roots every random stream of the workload.
	Seed uint64 `yaml:"seed"`
	// Rounds is the outer iteration count (default 1). Each round
	// re-samples every phase from its own derived stream.
	Rounds int `yaml:"rounds" range:"1,1024" default:"1"`
	// Arrays is the data footprint at class C; classes scale it.
	Arrays []ArraySpec `yaml:"arrays,required" range:"1,64"`
	// Phases is the per-round phase list, executed in order.
	Phases []PhaseSpec `yaml:"phases,required" range:"1,256"`

	// fingerprint is hash() of the decoded fields, taken once by the
	// decoder. A decoded spec is never mutated, so it stays current.
	fingerprint string
}

// ArraySpec declares one data array.
type ArraySpec struct {
	Name string `yaml:"name,required"`
	// Bytes is the class-C footprint (at most 1 GiB); Build scales it per
	// class/ranks.
	Bytes int64 `yaml:"bytes,required" range:"1,1073741824"`
}

// PhaseSpec is one phase: exactly one of Compute or Comm is set.
type PhaseSpec struct {
	Name string `yaml:"name,required"`
	// Repeat is the burst length: how many times the phase runs back to
	// back each round (default const 1, sampled per round; gamma/weibull
	// here model bursty inter-phase arrivals).
	Repeat Dist `yaml:"repeat" default:"1"`
	// Decay geometrically shrinks compute trip counts per round
	// (default 1 = no decay) — HPL's shrinking trailing matrix.
	Decay   float64      `yaml:"decay" default:"1"`
	Compute *ComputeSpec `yaml:"compute"`
	Comm    *CommSpec    `yaml:"comm"`
}

// ComputeSpec is an FP-mix block over memory walks. Its op counts AddSub,
// Mul, Div, FMA and Int are the fields of the embedded fp block.
type ComputeSpec struct {
	// Trips is the loop trip count distribution (sampled per round).
	Trips Dist `yaml:"trips,required"`
	fpMix `yaml:"fp" default:"{}"`
	// Vectorizable marks the block data-parallel (SIMD-eligible).
	Vectorizable bool `yaml:"vectorizable"`
	// Refs are the memory references per trip.
	Refs []RefSpec `yaml:"refs,required" range:"1,"`
}

// fpMix is a compute block's fp section: per-trip operation counts, each
// sampled per round (default const 0).
type fpMix struct {
	AddSub Dist `yaml:"addsub" default:"0"`
	Mul    Dist `yaml:"mul" default:"0"`
	Div    Dist `yaml:"div" default:"0"`
	FMA    Dist `yaml:"fma" default:"0"`
	Int    Dist `yaml:"int" default:"0"`
}

// RefSpec is one memory reference of a compute block.
type RefSpec struct {
	// Array names the referenced array.
	Array string `yaml:"array,required"`
	// Walk is the access pattern.
	Walk Walk `yaml:"walk" default:"seq"`
	// Stride is the per-trip advance in bytes (defaults: seq 8,
	// strided 64, stencil 1024 = the plane stride).
	Stride int64 `yaml:"stride" range:"1,1073741824"`
	// Store marks a write.
	Store bool `yaml:"store"`
}

// CommSpec is a communication phase.
type CommSpec struct {
	// Op is the operation.
	Op CommOp `yaml:"op,required"`
	// Bytes is the class-C message size distribution (sampled per
	// round); ignored by barrier.
	Bytes Dist `yaml:"bytes" default:"8"`
	// Root is the root rank of rooted collectives (reduce, bcast).
	Root int `yaml:"root" range:"0,1048576"`
}

// The rules the tags cannot state: each runs once its struct is decoded,
// given the mapping it came from for the rules that ask whether a key was
// present.

func (s *Spec) check(_ *yamlMap, ctx string) error {
	if s.Version != SpecVersion {
		return fmt.Errorf("workload: %s.version: unsupported version %d (decoder speaks %d)",
			ctx, s.Version, SpecVersion)
	}
	if !plainKey(s.Name) {
		return fmt.Errorf("workload: %s.name: %q must be a plain identifier", ctx, s.Name)
	}
	return nil
}

func (p *PhaseSpec) check(_ *yamlMap, ctx string) error {
	switch {
	case p.Decay <= 0 || p.Decay > 1:
		return fmt.Errorf("workload: %s.decay: %g outside (0, 1]", ctx, p.Decay)
	case p.Compute != nil && p.Comm != nil:
		return fmt.Errorf("workload: %s: compute and comm are mutually exclusive", ctx)
	case p.Compute == nil && p.Comm == nil:
		return fmt.Errorf("workload: %s: needs a compute or comm section", ctx)
	}
	return nil
}

func (r *RefSpec) check(_ *yamlMap, ctx string) error {
	stride, ok := walkStride[r.Walk]
	if !ok {
		return fmt.Errorf("workload: %s.walk: unknown walk %q (have seq, strided, random, stencil)",
			ctx, r.Walk)
	}
	if r.Stride == 0 { // absent: a present stride is at least 1
		r.Stride = stride
	}
	return nil
}

func (c *CommSpec) check(m *yamlMap, ctx string) error {
	switch c.Op {
	case OpBarrier, OpAllreduce, OpReduce, OpBcast, OpAlltoall, OpRing, OpHalo3D:
	default:
		return fmt.Errorf("workload: %s.op: unknown op %q (have barrier, allreduce, reduce, bcast, alltoall, ring, halo3d)",
			ctx, c.Op)
	}
	if _, ok := m.get("root"); ok && c.Op != OpReduce && c.Op != OpBcast {
		return fmt.Errorf("workload: %s.root: only reduce and bcast take a root", ctx)
	}
	return nil
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
	if _, ok := root.(*yamlMap); !ok {
		return nil, fmt.Errorf("workload: spec document must be a mapping")
	}
	s := &Spec{}
	if err := decode(root, reflect.ValueOf(s).Elem(), "", "spec"); err != nil {
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

// decode stores the YAML node v (a *yamlMap, []any or string) in dst, typed
// by dst's Go type: this one walker decodes every section of a spec, and a
// Dist through its own decode. tag is the struct tag of the field dst is
// (empty for a sequence item) and ctx the path naming dst in errors.
func decode(v any, dst reflect.Value, tag reflect.StructTag, ctx string) error {
	if dst.Type() == distType {
		return dst.Addr().Interface().(*Dist).decode(v, ctx)
	}
	switch dst.Kind() {
	case reflect.Pointer:
		dst.Set(reflect.New(dst.Type().Elem()))
		return decode(v, dst.Elem(), tag, ctx)
	case reflect.Struct:
		m, ok := v.(*yamlMap)
		if !ok {
			return fmt.Errorf("workload: %s: expected a mapping", ctx)
		}
		return decodeMap(m, dst, ctx)
	case reflect.Slice:
		seq, ok := v.([]any)
		if !ok {
			return fmt.Errorf("workload: %s: expected a sequence", ctx)
		}
		if lo, hi := bounds(tag); int64(len(seq)) < lo {
			return fmt.Errorf("workload: %s: empty", ctx)
		} else if int64(len(seq)) > hi {
			key, _, _ := strings.Cut(tag.Get("yaml"), ",")
			return fmt.Errorf("workload: %s: %d %s exceeds %d", ctx, len(seq), key, hi)
		}
		dst.Set(reflect.MakeSlice(dst.Type(), len(seq), len(seq)))
		for i, item := range seq {
			if err := decode(item, dst.Index(i), "", fmt.Sprintf("%s[%d]", ctx, i)); err != nil {
				return err
			}
		}
		return nil
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("workload: %s: expected a scalar", ctx)
	}
	switch dst.Kind() {
	case reflect.String:
		dst.SetString(s)
	case reflect.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("workload: %s: %q is not a bool", ctx, s)
		}
		dst.SetBool(b)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("workload: %s: %q is not an integer", ctx, s)
		}
		if lo, hi := bounds(tag); n < lo || n > hi {
			return fmt.Errorf("workload: %s: %d outside [%d, %d]", ctx, n, lo, hi)
		}
		dst.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("workload: %s: %q is not a uint64 (overflow or bad digits)", ctx, s)
		}
		dst.SetUint(n)
	case reflect.Float64:
		f, err := parseFloat(s)
		if err != nil {
			return fmt.Errorf("workload: %s: %v", ctx, err)
		}
		dst.SetFloat(f)
	default:
		panic("workload: no decoding for " + dst.Type().String())
	}
	return nil
}

// decodeMap decodes the mapping m into the struct dst: a key no field names
// is refused (the YAML analogue of json.Decoder.DisallowUnknownFields), a
// missing required key is refused, an absent optional key decodes its
// default tag as YAML (or leaves the zero value), and the struct's check,
// when it has one, runs last.
func decodeMap(m *yamlMap, dst reflect.Value, ctx string) error {
	t := dst.Type()
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("yaml"), ",")
	}
	for _, k := range m.keys {
		if !slices.Contains(keys, k) {
			return fmt.Errorf("workload: %s: unknown field %q", ctx, k)
		}
	}
	for i, key := range keys {
		if key == "" {
			continue
		}
		tag := t.Field(i).Tag
		v, ok := m.get(key)
		if !ok {
			if strings.HasSuffix(tag.Get("yaml"), ",required") {
				return fmt.Errorf("workload: %s: missing required key %q", ctx, key)
			}
			def, ok := tag.Lookup("default")
			if !ok {
				continue
			}
			v, _ = parseScalar(def, 0) // a malformed default fails every decode
		}
		if err := decode(v, dst.Field(i), tag, ctx+"."+key); err != nil {
			return err
		}
	}
	// The embedded fp block is reached through an unexported field, so it
	// cannot be handed out as an interface; it has no check.
	if p := dst.Addr(); p.CanInterface() {
		if c, ok := p.Interface().(interface{ check(*yamlMap, string) error }); ok {
			return c.check(m, ctx)
		}
	}
	return nil
}

var distType = reflect.TypeOf(Dist{})

// bounds reads a range tag "lo,hi"; an absent bound is the int64 limit.
func bounds(tag reflect.StructTag) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if l, h, ok := strings.Cut(tag.Get("range"), ","); ok {
		lo, _ = strconv.ParseInt(l, 10, 64)
		if h != "" {
			hi, _ = strconv.ParseInt(h, 10, 64)
		}
	}
	return lo, hi
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
