package workload

import (
	"reflect"
	"strings"
	"testing"

	"bgpsim/internal/nas"
)

func testConfig(ranks int) nas.Config {
	return nas.Config{Class: nas.ClassS, Ranks: ranks}
}

func mustSpec(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := DecodeSpecBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildDeterministic is the compilation property test: an identical
// (spec, seed) pair must lower to a deeply equal kernel IR — the invariant
// that makes the spec fingerprint a safe progcache / RunKey / memo key.
func TestBuildDeterministic(t *testing.T) {
	a := mustSpec(t, goodSpec)
	b := mustSpec(t, goodSpec)
	appA, err := Build(a, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	appB, err := Build(b, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(appA.Kernel, appB.Kernel) {
		t.Fatalf("identical (spec, seed) compiled to different kernels:\n%+v\n%+v", appA.Kernel, appB.Kernel)
	}
	if appA.Name != appB.Name || appA.Ranks != appB.Ranks {
		t.Fatalf("app metadata differs: %+v vs %+v", appA, appB)
	}
}

func TestBuildSeedSensitivity(t *testing.T) {
	a := mustSpec(t, goodSpec)
	b := mustSpec(t, goodSpec)
	b.Seed++
	appA, err := Build(a, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	appB, err := Build(b, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(appA.Kernel, appB.Kernel) {
		t.Fatal("different seeds compiled to identical kernels")
	}
}

func TestBuildKernelNameCarriesFingerprint(t *testing.T) {
	s := mustSpec(t, goodSpec)
	app, err := Build(s, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Name + "#" + s.Fingerprint()[:12]
	if app.Kernel.Name != want {
		t.Fatalf("kernel name %q, want %q (fingerprint-scoped progcache identity)", app.Kernel.Name, want)
	}
}

func TestBuildRootOutOfRange(t *testing.T) {
	src := strings.Replace(goodSpec, "op: allreduce", "op: bcast\n      root: 3", 1)
	s := mustSpec(t, src)
	if _, err := Build(s, testConfig(2)); err == nil {
		t.Fatal("root 3 with 2 ranks should fail to build")
	}
	if _, err := Build(s, testConfig(4)); err != nil {
		t.Fatalf("root 3 with 4 ranks should build: %v", err)
	}
}

func TestBuildScalesWithRanksAndClass(t *testing.T) {
	s := mustSpec(t, goodSpec)
	small, err := Build(s, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(s, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Weak-ish scaling: fewer ranks → more work per rank.
	if small.Kernel.Arrays[0].Bytes >= big.Kernel.Arrays[0].Bytes {
		t.Fatalf("per-rank array did not grow when ranks shrank: %d vs %d",
			small.Kernel.Arrays[0].Bytes, big.Kernel.Arrays[0].Bytes)
	}
	// The sampled shape must not depend on scaling: phase counts match.
	if len(small.Kernel.Phases) != len(big.Kernel.Phases) {
		t.Fatalf("phase count depends on ranks: %d vs %d", len(small.Kernel.Phases), len(big.Kernel.Phases))
	}
}

func TestBuildHaloRuns(t *testing.T) {
	src := strings.Replace(goodSpec, "op: allreduce", "op: halo3d", 1)
	s := mustSpec(t, src)
	app, err := Build(s, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if app.Body == nil {
		t.Fatal("no body")
	}
}
