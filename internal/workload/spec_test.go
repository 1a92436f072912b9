package workload

import (
	"os"
	"strings"
	"testing"
)

// goodSpec is a small but feature-complete spec used across the tests.
const goodSpec = `
version: 1
name: demo
description: "a demo workload"
seed: 42
rounds: 2
arrays:
  - name: a
    bytes: 1048576
  - {name: b, bytes: 65536}
phases:
  - name: work
    repeat: {dist: poisson, mean: 2, min: 1, max: 4}
    decay: 0.9
    compute:
      trips: {dist: uniform, min: 100, max: 200}
      fp: {fma: 2, addsub: 1}
      vectorizable: true
      refs:
        - {array: a, walk: stencil, stride: 512, store: true}
        - {array: b, walk: random}
  - name: sync
    comm:
      op: allreduce
      bytes: 64
`

func TestDecodeGoodSpec(t *testing.T) {
	s, err := DecodeSpecBytes([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || s.Seed != 42 || s.Rounds != 2 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if len(s.Arrays) != 2 || s.Arrays[1].Name != "b" || s.Arrays[1].Bytes != 65536 {
		t.Fatalf("arrays mismatch: %+v", s.Arrays)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases mismatch: %+v", s.Phases)
	}
	work := s.Phases[0]
	if work.Compute == nil || work.Comm != nil {
		t.Fatalf("phase %q should be compute-only", work.Name)
	}
	if work.Repeat.Kind != DistPoisson || work.Repeat.Value != 2 {
		t.Fatalf("repeat dist mismatch: %+v", work.Repeat)
	}
	if work.Decay != 0.9 {
		t.Fatalf("decay mismatch: %g", work.Decay)
	}
	if got := work.Compute.Refs[0]; got.Walk != WalkStencil || got.Stride != 512 || !got.Store {
		t.Fatalf("ref mismatch: %+v", got)
	}
	if got := work.Compute.Refs[1]; got.Walk != WalkRandom {
		t.Fatalf("ref mismatch: %+v", got)
	}
	if work.Compute.Mul.Kind != DistConst || work.Compute.Mul.Value != 0 {
		t.Fatalf("unset fp field should default to const 0: %+v", work.Compute.Mul)
	}
	sync := s.Phases[1]
	if sync.Comm == nil || sync.Comm.Op != OpAllreduce {
		t.Fatalf("phase %q should be an allreduce: %+v", sync.Name, sync.Comm)
	}
}

func TestDecodeDefaultStrides(t *testing.T) {
	src := `
version: 1
name: d
arrays:
  - {name: a, bytes: 4096}
phases:
  - name: p
    compute:
      trips: 10
      refs:
        - {array: a}
        - {array: a, walk: strided}
        - {array: a, walk: stencil}
`
	s, err := DecodeSpecBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	refs := s.Phases[0].Compute.Refs
	for i, want := range []int64{8, 64, 1024} {
		if refs[i].Stride != want {
			t.Errorf("ref %d default stride = %d, want %d", i, refs[i].Stride, want)
		}
	}
}

func TestLoadHPLSpec(t *testing.T) {
	b, err := os.ReadFile("../../specs/hpl.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSpecBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hpl" || s.Rounds != 6 || len(s.Phases) != 4 {
		t.Fatalf("hpl spec shape changed: name=%q rounds=%d phases=%d", s.Name, s.Rounds, len(s.Phases))
	}
}

// TestDecodeRejectsMalformedSpecs is the malformed-spec table: every entry
// must fail with an error mentioning the expected fragment, mirroring the
// server's TestSubmitRejects table for the JSON job spec.
func TestDecodeRejectsMalformedSpecs(t *testing.T) {
	const header = "version: 1\nname: x\narrays:\n  - {name: a, bytes: 4096}\n"
	const onePhase = "phases:\n  - name: p\n    compute:\n      trips: 10\n      refs:\n        - {array: a}\n"
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "empty spec"},
		{"tab indentation", "version: 1\n\tname: x\n", "tab in indentation"},
		{"not a mapping", "- a\n- b\n", "must be a mapping"},
		{"unknown top-level field", header + onePhase + "frobnicate: 1\n", `unknown field "frobnicate"`},
		{"duplicate key", "version: 1\nversion: 1\n", `duplicate key "version"`},
		{"missing version", "name: x\narrays:\n  - {name: a, bytes: 4096}\n" + onePhase, "missing required key \"version\""},
		{"wrong version", strings.Replace(header, "version: 1", "version: 2", 1) + onePhase, "unsupported version 2"},
		{"bad name", strings.Replace(header, "name: x", "name: \"a b\"", 1) + onePhase, "plain identifier"},
		{"seed overflow", header + "seed: 99999999999999999999\n" + onePhase, "not a uint64"},
		{"negative seed", header + "seed: -1\n" + onePhase, "not a uint64"},
		{"rounds zero", header + "rounds: 0\n" + onePhase, "outside [1, 1024]"},
		{"rounds too big", header + "rounds: 1000000\n" + onePhase, "outside [1, 1024]"},
		{"no arrays", "version: 1\nname: x\narrays: []\n" + onePhase, "spec.arrays: empty"},
		{"negative array bytes", "version: 1\nname: x\narrays:\n  - {name: a, bytes: -5}\n" + onePhase, "outside [1,"},
		{"duplicate array", "version: 1\nname: x\narrays:\n  - {name: a, bytes: 4096}\n  - {name: a, bytes: 4096}\n" + onePhase, "duplicate array"},
		{"no phases", header + "phases: []\n", "spec.phases: empty"},
		{"phase without body", header + "phases:\n  - name: p\n", "needs a compute or comm"},
		{"phase with both bodies", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      refs:\n        - {array: a}\n    comm:\n      op: barrier\n", "mutually exclusive"},
		{"duplicate phase", header + onePhase + "  - name: p\n    comm:\n      op: barrier\n", "duplicate phase"},
		{"unknown array ref", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      refs:\n        - {array: zz}\n", `unknown array "zz"`},
		{"unknown walk", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      refs:\n        - {array: a, walk: spiral}\n", `unknown walk "spiral"`},
		{"negative stride", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      refs:\n        - {array: a, walk: strided, stride: -8}\n", "outside [1,"},
		{"no refs", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      refs: []\n", "refs: empty"},
		{"unknown dist", header + "phases:\n  - name: p\n    compute:\n      trips: {dist: zipf, mean: 3}\n      refs:\n        - {array: a}\n", `unknown distribution "zipf"`},
		{"uniform without bounds", header + "phases:\n  - name: p\n    compute:\n      trips: {dist: uniform}\n      refs:\n        - {array: a}\n", "uniform needs min and max"},
		{"gamma bad shape", header + "phases:\n  - name: p\n    compute:\n      trips: {dist: gamma, shape: 0, scale: 2}\n      refs:\n        - {array: a}\n", "positive shape and scale"},
		{"poisson huge mean", header + "phases:\n  - name: p\n    compute:\n      trips: {dist: poisson, mean: 1e9}\n      refs:\n        - {array: a}\n", "exceeds"},
		{"max below min", header + "phases:\n  - name: p\n    compute:\n      trips: {dist: uniform, min: 10, max: 1}\n      refs:\n        - {array: a}\n", "below min"},
		{"unknown comm op", header + "phases:\n  - name: p\n    comm:\n      op: gossip\n", `unknown op "gossip"`},
		{"root on unrooted op", header + "phases:\n  - name: p\n    comm:\n      op: allreduce\n      root: 1\n", "only reduce and bcast"},
		{"decay out of range", header + "phases:\n  - name: p\n    decay: 1.5\n    compute:\n      trips: 1\n      refs:\n        - {array: a}\n", "outside (0, 1]"},
		{"bad bool", header + "phases:\n  - name: p\n    compute:\n      trips: 1\n      vectorizable: maybe\n      refs:\n        - {array: a}\n", "not a bool"},
		{"trailing garbage", header + onePhase + "      junk\n", `expected "key: value"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpecBytes([]byte(tc.src))
			if err == nil {
				t.Fatalf("decoded without error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeCostBound pins the spec cost bound: a spec whose worst-case
// machine-total trips reach MaxSpecTrips decodes, one trip more is refused
// naming spec.phases, and each form of a Dist's upper bound counts — a
// constant, Max, and the sampler's clamp when Max is absent. At class C the
// bound is 2^23 trips per round over 128 ranks.
func TestDecodeCostBound(t *testing.T) {
	const header = "version: 1\nname: x\narrays:\n  - {name: a, bytes: 4096}\n"
	phase := func(repeat, trips string) string {
		return "phases:\n  - name: p\n    repeat: " + repeat + "\n    compute:\n      trips: " + trips +
			"\n      refs:\n        - {array: a}\n  - name: c\n    comm: {op: allreduce, bytes: 8}\n"
	}
	for _, tc := range []struct {
		name, src string
		ok        bool
	}{
		{"const trips at the bound", header + phase("1", "8388608"), true},
		{"const trips over", header + phase("1", "8388609"), false},
		{"max trips at the bound", header + phase("1", "{dist: gamma, shape: 2, scale: 1000, max: 8388608}"), true},
		{"max trips over", header + phase("1", "{dist: gamma, shape: 2, scale: 1000, max: 8388609}"), false},
		{"unbounded trips clamp", header + phase("1", "{dist: gamma, shape: 2, scale: 1000}"), false},
		{"max repeat at the bound", header + phase("{dist: weibull, shape: 1, scale: 2, max: 8}", "1048576"), true},
		{"max repeat over", header + phase("{dist: weibull, shape: 1, scale: 2, max: 8}", "1048577"), false},
		{"unbounded repeat clamp at the bound", header + phase("{dist: weibull, shape: 1, scale: 2}", "32768"), true},
		{"unbounded repeat clamp over", header + phase("{dist: weibull, shape: 1, scale: 2}", "32769"), false},
		{"rounds at the bound", header + "rounds: 4\n" + phase("1", "2097152"), true},
		{"rounds over", header + "rounds: 5\n" + phase("1", "2097152"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := DecodeSpecBytes([]byte(tc.src))
			switch {
			case tc.ok && err != nil:
				t.Fatalf("refused at the bound: %v", err)
			case tc.ok && s.cost() != float64(MaxSpecTrips):
				t.Fatalf("cost %.0f, want the bound %d", s.cost(), MaxSpecTrips)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "spec.phases")):
				t.Fatalf("error %v, want one naming spec.phases", err)
			}
		})
	}
	for _, path := range []string{"../../specs/hpl.yaml", "../../benchmark/specs/halo.yaml"} {
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestFingerprintPinned pins the canonical encoding: if this fails, every
// committed RunKey, epoch-memo entry and bgpd job id derived from a spec
// changes meaning, and the goldens must be regenerated deliberately.
func TestFingerprintPinned(t *testing.T) {
	s, err := DecodeSpecBytes([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	const want = "79d6e3b5f76bcb8d542fd927a4d90582013db4ad86aa9f7d373898c52147696c"
	if got := s.Fingerprint(); got != want {
		t.Fatalf("fingerprint = %s, want %s\ncanonical:\n%s", got, want, s.canonical())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base, err := DecodeSpecBytes([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Seed++ },
		"rounds":  func(s *Spec) { s.Rounds++ },
		"array":   func(s *Spec) { s.Arrays[0].Bytes++ },
		"repeat":  func(s *Spec) { s.Phases[0].Repeat.Value++ },
		"decay":   func(s *Spec) { s.Phases[0].Decay = 0.5 },
		"fp":      func(s *Spec) { s.Phases[0].Compute.FMA.Value++ },
		"ref":     func(s *Spec) { s.Phases[0].Compute.Refs[0].Stride++ },
		"comm":    func(s *Spec) { s.Phases[1].Comm.Bytes.Value++ },
		"vec":     func(s *Spec) { s.Phases[0].Compute.Vectorizable = false },
		"name":    func(s *Spec) { s.Name = "demo2" },
		"walk":    func(s *Spec) { s.Phases[0].Compute.Refs[1].Walk = WalkSeq },
		"distmin": func(s *Spec) { s.Phases[0].Repeat.Min = 2 },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			mod, err := DecodeSpecBytes([]byte(goodSpec))
			if err != nil {
				t.Fatal(err)
			}
			edit(mod)
			if mod.Fingerprint() == base.Fingerprint() {
				t.Fatalf("edit %q did not change the fingerprint", name)
			}
		})
	}
}
