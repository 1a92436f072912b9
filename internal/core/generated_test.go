package core

// The engine oracle: programs drawn from a seeded generator run in lockstep
// on the batched engine and on the reference interpreter under the same
// random limit cuts, and must agree on everything a core exposes — at every
// cut, not only at the end. TestLimitCutsAreInvisible cuts three
// hand-written programs; this test covers the op shapes nobody wrote down.

import (
	"fmt"
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/rng"
	"bgpsim/internal/statehash"
)

// genRegionSizes spans the engine's region cases: empty, below a line,
// exactly a line, a few lines (one not a line multiple), larger than the
// L1 (so victims revoke proofs), and beyond the residency bitmask's reach.
var genRegionSizes = []uint64{
	0, 8, 64, LineBytes, 3*LineBytes + 40, 8 * LineBytes,
	64 << 10, (maxResLines + 37) * LineBytes,
}

// genStrides holds stride magnitudes on both sides of a line, including
// ones larger than the small regions (the stride is reduced mod size).
var genStrides = []int64{1, 4, 8, 16, 40, 64, 120, 127, 128, 129, 136, 256, 1000, 4104}

var genOffsets = []int64{0, 0, 8, 120, LineBytes + 16, 4096 + 8, -8, -1000}

var genMemClasses = []isa.Class{isa.Load, isa.Store, isa.QuadLoad, isa.QuadStore}

var genOtherClasses = []isa.Class{isa.FPFMA, isa.IntALU, isa.Branch, isa.FPDiv, isa.FPSIMDMult}

var genPatterns = []isa.Pattern{isa.Seq, isa.Strided, isa.Random}

// genProgram draws a program of 1–3 loops with 0–5 memory ops each.
func genProgram(r *rng.Source, name string) *isa.Program {
	p := &isa.Program{Name: name}
	for i, size := range genRegionSizes {
		p.Regions = append(p.Regions, isa.Region{Name: fmt.Sprintf("r%d", i), Size: size})
	}
	for li, loops := 0, 1+r.Intn(3); li < loops; li++ {
		l := isa.Loop{Name: fmt.Sprintf("l%d", li)}
		// Mixed magnitudes: some loops end inside their first line, some
		// wrap the small regions many times.
		l.Trips = int64(r.Uint64n(1 << uint(1+r.Intn(14))))
		for n := r.Intn(4); n > 0; n-- {
			l.Body = append(l.Body, isa.Op{Class: genOtherClasses[r.Intn(len(genOtherClasses))]})
		}
		for n := r.Intn(6); n > 0; n-- {
			op := isa.Op{
				Class:  genMemClasses[r.Intn(len(genMemClasses))],
				Pat:    genPatterns[r.Intn(len(genPatterns))],
				Region: isa.RegionID(r.Intn(len(p.Regions))),
				Offset: genOffsets[r.Intn(len(genOffsets))],
			}
			if op.Pat != isa.Random {
				op.Stride = genStrides[r.Intn(len(genStrides))]
				if r.Intn(2) == 0 {
					op.Stride = -op.Stride
				}
			}
			// Memory ops land anywhere in the body, not only at its end.
			at := r.Intn(len(l.Body) + 1)
			l.Body = append(l.Body, isa.Op{})
			copy(l.Body[at+1:], l.Body[at:])
			l.Body[at] = op
		}
		p.Loops = append(p.Loops, l)
	}
	return p
}

// coreWindow flattens the core with the engine-route words zeroed: the
// routes are the one place the two engines are meant to differ.
func coreWindow(c *Core, buf []uint64) []uint64 {
	buf = buf[:statehash.Read(c, buf)]
	clear(buf[1+int(isa.NumClasses):][:NumRoutes])
	return buf
}

func TestBatchedMatchesInterpreterOnGeneratedLoops(t *testing.T) {
	const programs = 600
	interpParams := DefaultParams()
	interpParams.Interpreter = true
	var bufB, bufI []uint64
	var routes [NumRoutes]uint64

	for pi := 0; pi < programs; pi++ {
		r := rng.New(0xB6E9).Derive(uint64(pi))
		prog := genProgram(r, fmt.Sprintf("gen%d", pi))
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, nshards := range []int{1, 4} {
			for shard := 0; shard < nshards; shard++ {
				lowB, lowI := &fakeLower{readLatency: 100}, &fakeLower{readLatency: 100}
				cb, ci := New(0, DefaultParams(), lowB), New(0, interpParams, lowI)
				if bufB == nil {
					bufB, bufI = make([]uint64, statehash.Len(cb)), make([]uint64, statehash.Len(ci))
				}
				sb, err := BindShard(prog, 1<<32, uint64(pi), shard, nshards)
				if err != nil {
					t.Fatal(err)
				}
				si, _ := BindShard(prog, 1<<32, uint64(pi), shard, nshards)

				where := func(cut int) string {
					return fmt.Sprintf("program %d shard %d/%d cut %d: %+v", pi, shard, nshards, cut, prog.Loops)
				}
				cuts := r.Derive(uint64(nshards*8 + shard))
				for cut := 0; ; cut++ {
					// One limit for both engines, from mixed magnitudes: a
					// few cycles (cuts inside a bulk window), thousands (a
					// slice holding many line transitions), or none.
					var limit uint64
					if cuts.Intn(16) != 0 {
						limit = cb.Cycles + 1 + cuts.Uint64n(1<<uint(2+cuts.Intn(14)))
					}
					doneB, doneI := cb.Exec(sb, limit), ci.Exec(si, limit)
					if doneB != doneI || sb.loop != si.loop || sb.trip != si.trip {
						t.Fatalf("%s: batched stopped at loop %d trip %d (done %v), interpreter at loop %d trip %d (done %v)",
							where(cut), sb.loop, sb.trip, doneB, si.loop, si.trip, doneI)
					}
					if cb.Mix != ci.Mix || cb.Cycles != ci.Cycles {
						t.Fatalf("%s: mix/cycles diverged\nbatched %v %d\ninterp  %v %d",
							where(cut), cb.Mix, cb.Cycles, ci.Mix, ci.Cycles)
					}
					if got, want := snapshot(cb, lowB), snapshot(ci, lowI); got != want {
						t.Fatalf("%s: counters diverged\nbatched %+v\ninterp  %+v", where(cut), got, want)
					}
					if sb.RngState() != si.RngState() {
						t.Fatalf("%s: address RNG diverged", where(cut))
					}
					wb, wi := coreWindow(cb, bufB), coreWindow(ci, bufI)
					for k := range wb {
						if wb[k] != wi[k] {
							t.Fatalf("%s: state word %d: batched %#x, interpreter %#x", where(cut), k, wb[k], wi[k])
						}
					}
					if doneB {
						break
					}
					if cut > 1_000_000 {
						t.Fatalf("%s: bounded execution made no progress", where(cut))
					}
					// A coherence snoop between slices: a line some op may
					// hold a residency proof for leaves both L1s, so a proof
					// that outlives its slice counts a hit the interpreter
					// does not see.
					if reg := cuts.Intn(2 * len(prog.Regions)); reg < len(prog.Regions) && prog.Regions[reg].Size > 0 {
						addr := sb.regionBase[reg] + cuts.Uint64n(prog.Regions[reg].Size)
						cb.L1.Invalidate(addr)
						ci.L1.Invalidate(addr)
					}
				}
				if ci.EngineRoutes[RouteInterp] == 0 {
					t.Fatalf("program %d: the reference core did not interpret", pi)
				}
				for k, n := range cb.EngineRoutes {
					routes[k] += n
				}
			}
		}
	}
	// The generator must keep reaching every batched route, or the test has
	// quietly stopped comparing one of them.
	t.Logf("loop executions per route: %v", routes)
	if routes[RouteInterp] != 0 {
		t.Errorf("the batched core interpreted %d loops", routes[RouteInterp])
	}
	for _, k := range []Route{RouteClosedForm, RouteCoalesced, RouteTracked} {
		if routes[k] < 100 {
			t.Errorf("only %d generated loop executions took route %v", routes[k], k)
		}
	}
}
