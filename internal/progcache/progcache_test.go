package progcache

import (
	"fmt"
	"testing"

	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
)

// testKernel builds a small valid kernel whose fingerprint the key tests
// pin. Mutating any field must change the key.
func testKernel() *compiler.Kernel {
	return &compiler.Kernel{
		Name:   "toy",
		Arrays: []compiler.Array{{Name: "u", Bytes: 4096}},
		Phases: []compiler.Phase{{
			Name: "sweep",
			Loops: []compiler.LoopNest{{
				Name:  "body",
				Trips: 64,
				Stmts: []compiler.Stmt{{
					FMA:          2,
					Refs:         []compiler.Ref{{Array: 0, Pat: isa.Seq, Stride: 8}},
					Vectorizable: true,
				}},
			}},
		}},
	}
}

func TestKeyDistinguishesInputs(t *testing.T) {
	base := Key(testKernel(), compiler.Options{Level: compiler.O5})
	if got := Key(testKernel(), compiler.Options{Level: compiler.O5}); got != base {
		t.Error("identical kernel and options produced different keys")
	}
	if got := Key(testKernel(), compiler.Options{Level: compiler.O3}); got == base {
		t.Error("changing the optimization level did not change the key")
	}
	if got := Key(testKernel(), compiler.Options{Level: compiler.O5, Arch440d: true}); got == base {
		t.Error("enabling -qarch=440d did not change the key")
	}
	k := testKernel()
	k.Phases[0].Loops[0].Trips++
	if got := Key(k, compiler.Options{Level: compiler.O5}); got == base {
		t.Error("changing a loop trip count did not change the key")
	}
	k = testKernel()
	k.Phases[0].Loops[0].Stmts[0].Refs[0].Stride = 16
	if got := Key(k, compiler.Options{Level: compiler.O5}); got == base {
		t.Error("changing an access stride did not change the key")
	}
}

// TestKeyFingerprintStability pins the exact fingerprint of the toy kernel.
// The key flows into nothing persistent (the cache is in-memory), but a
// silent change to the rendering — a renamed IR field, a new Options knob,
// a %+v format change — would merge or split cache entries across the code
// change; this test turns that into a visible decision. If it fails because
// the IR or Options shape legitimately changed, bump isa.Version and update
// the constant.
func TestKeyFingerprintStability(t *testing.T) {
	const want = "1053ae30f94337e3672e0b148a30b070ce91377cee9f74c70745d41b9381b270"
	if got := Key(testKernel(), compiler.Options{Level: compiler.O5, Arch440d: true}); got != want {
		t.Errorf("fingerprint of the pinned toy kernel changed:\n got %s\nwant %s\n"+
			"If the kernel IR or Options shape changed on purpose, bump isa.Version and re-pin.", got, want)
	}
}

// TestCachedBuildMatchesFreshCompile is the unit-level exactness check: the
// phase map served by the cache is the same object graph an uncached
// compilation produces, program for program.
func TestCachedBuildMatchesFreshCompile(t *testing.T) {
	k := testKernel()
	opts := compiler.Options{Level: compiler.O5, Arch440d: true}
	fresh, err := compiler.Compile(k, "sweep", opts)
	if err != nil {
		t.Fatal(err)
	}
	c := New(4)
	build := func() (map[string]*isa.Program, error) {
		p, err := compiler.Compile(k, "sweep", opts)
		if err != nil {
			return nil, err
		}
		return map[string]*isa.Program{"sweep": p}, nil
	}
	cold, hit, err := GetOrCompile(c, Key(k, opts), build)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold lookup reported a cache hit")
	}
	hot, hit, err := GetOrCompile(c, Key(k, opts), build)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("hot lookup reported a compile")
	}
	if hot["sweep"] != cold["sweep"] {
		t.Error("hot lookup returned a different program than the cold build")
	}
	if got, want := fmt.Sprintf("%+v", hot["sweep"].Loops), fmt.Sprintf("%+v", fresh.Loops); got != want {
		t.Errorf("cached program's loops differ from a fresh compile:\n got %s\nwant %s", got, want)
	}
}
