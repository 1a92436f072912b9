package mpi

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim/internal/cache"
	"bgpsim/internal/core"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/node"
	"bgpsim/internal/statehash"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata state goldens from the current engine")

// scatterProgram lives on the L1-miss path with dirty victims: a sequential
// key read drives a random scatter over a table 64× the L1 (exactly the
// largest region the residency-proof bitmask still covers) and a random
// gather over one twice that (no proof). Nearly every scatter store misses
// and evicts a line an earlier store dirtied, so the run is write-backs, L2
// detector steals and L3 allocations.
func scatterProgram(trips int64) *isa.Program {
	return &isa.Program{
		Name: "scatter-dirty",
		Regions: []isa.Region{
			{Name: "keys", Size: 1 << 16},
			{Name: "bins", Size: 2 << 20},
			{Name: "pool", Size: 4 << 20},
		},
		Loops: []isa.Loop{{
			Name:  "scatter",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.IntALU},
				{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 4},
				{Class: isa.Store, Pat: isa.Random, Region: 1},
				{Class: isa.Load, Pat: isa.Random, Region: 2},
			},
		}},
	}
}

// stridedProgram streams across lines at strides the L2 engines lock onto
// (two and three lines forward, one line backward, all within
// cache.DefaultMaxDelta), so every trip is a real access per op and the
// detectors run their continuation path, with a store stream supplying dirty
// victims. Every region wrap strands a locked engine with a high hit count;
// once all fifteen are taken (five wraps in) the streams fight over the one
// zero-hit engine and never lock again, which is the steal path at its
// busiest. The second loop adds a stride the engines cannot follow at all.
func stridedProgram(trips int64) *isa.Program {
	return &isa.Program{
		Name: "strided-xline",
		Regions: []isa.Region{
			{Name: "a", Size: 1 << 20},
			{Name: "b", Size: 3 << 19},
			{Name: "c", Size: 1 << 19},
		},
		Loops: []isa.Loop{{
			Name:  "locked",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.FPFMA},
				{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 256},
				{Class: isa.Store, Pat: isa.Strided, Region: 1, Stride: 384},
				{Class: isa.Load, Pat: isa.Strided, Region: 2, Stride: -128},
			},
		}, {
			Name:  "unlockable",
			Trips: trips / 4,
			Body: []isa.Op{
				{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 1024 + 8},
				{Class: isa.Store, Pat: isa.Seq, Region: 2, Stride: 8},
			},
		}},
	}
}

// missPathBody runs p on every rank twice (the second execution rewinds into
// caches the first left warm and dirty) with collectives between, so the
// shared L3 sees the ranks' miss streams interleaved slice by slice.
func missPathBody(p *isa.Program) func(*Rank) {
	return func(r *Rank) {
		r.Exec(p)
		r.Allreduce(256)
		r.Exec(p)
		r.Barrier()
	}
}

// historicState is machineState in the L3 layout the state goldens were
// recorded in. Each L3 bank holds only the sets its own addresses reach
// (DESIGN.md Known deviation 5) and sees bank-local addresses, the node's
// with the bank-select bit 7 removed: local line l of bank b is line 2l+b.
// So bank-local set i is set 2i+b of the full-geometry bank the goldens
// booted, with the same tags, and a bank of one set is not halved but
// stores l+1 where it stored 2l+b+1. historicState rebuilds every bank's
// window at the full geometry, the dead parity's sets as a freshly booted
// bank holds them, so the goldens go on pinning the model they recorded.
// It is the one place that knows the old layout.
func historicState(t *testing.T, j *Job) []uint64 {
	t.Helper()
	var out []uint64
	for _, id := range j.NodeIDs() {
		n := j.Machine().Nodes[id]
		w := make([]uint64, statehash.Len(n))
		statehash.Read(n, w)
		off := 0
		for _, c := range n.Cores {
			off += statehash.Len(c)
		}
		out = append(out, w[:off]...)
		for b, bank := range n.L3 {
			if bank != nil {
				end := off + statehash.Len(bank)
				out = append(out, fullBankWindow(t, n.Params(), b, w[off:end])...)
				off = end
			}
		}
		out = append(out, w[off:]...)
	}
	return out
}

// fullBankWindow re-expands bank b's window to the full geometry: the set
// count New took before halving it, and the cache's slab layout (per set:
// dirty mask, recency list, signature bytes, then packed 32-bit tags, with
// the three event counters after the slab).
func fullBankWindow(t *testing.T, p node.Params, b int, win []uint64) []uint64 {
	t.Helper()
	lines := p.L3Bytes / node.NumL3Banks / core.LineBytes
	sets := 1
	for sets*2*p.L3Ways <= lines {
		sets *= 2
	}
	ways := lines / sets
	fresh := cache.New(cache.Config{SizeBytes: sets * ways * core.LineBytes, LineBytes: core.LineBytes, Ways: ways, WriteBack: true})
	out := make([]uint64, statehash.Len(fresh))
	statehash.Read(fresh, out)
	setWords := (len(out) - 3) / sets
	slab := win[:len(win)-3]
	local := len(slab) / setWords
	if local*setWords != len(slab) || local != max(sets/2, 1) {
		t.Fatalf("bank %d: %d slab words are not %d sets of %d", b, len(slab), max(sets/2, 1), setWords)
	}
	localBits, setBits := bits.TrailingZeros(uint(local)), bits.TrailingZeros(uint(sets))
	tagOff := 2 + (ways+7)/8
	for i := 0; i < local; i++ {
		src := slab[i*setWords : (i+1)*setWords]
		full := (i<<1 | b) & (sets - 1)
		dst := out[full*setWords : (full+1)*setWords]
		copy(dst[:2], src[:2])
		for w := 0; w < ways; w++ {
			tag := uint32(src[tagOff+w>>1] >> (32 * uint(w&1)))
			if tag != 0 {
				line := (uint64(tag-1)<<localBits|uint64(i))<<1 | uint64(b)
				tag = uint32(line>>setBits + 1)
			}
			dst[tagOff+w>>1] |= uint64(tag) << (32 * uint(w&1))
			dst[2+w>>3] |= uint64(uint8(tag)) << (8 * uint(w&7))
		}
	}
	copy(out[len(out)-3:], win[len(win)-3:])
	return out
}

// TestMachineStateGolden pins the whole flattened machine — every cache tag,
// recency word, dirty bit, detector engine, prefetch buffer and counter of
// every node (its state window) — after workloads that live on the L1-miss
// path, as one digest per workload and operating mode. Counter-dump equality
// cannot see a recency word move (PR 19 found sixteen that did, with no dump
// byte changed); this can. The golden file records the model, not an engine:
// regenerate it (-update) only in a change that means to move simulated
// state, never alongside a host-side optimisation of the path.
func TestMachineStateGolden(t *testing.T) {
	l3pf := machine.DefaultParams()
	l3pf.Node.L3PrefetchDepth = 2
	body := func(p *isa.Program, params machine.Params) func(machine.OpMode) (*Job, error) {
		return func(mode machine.OpMode) (*Job, error) {
			m := machine.New(2, mode, params)
			j, err := NewJob(m, m.MaxRanks())
			if err == nil {
				err = j.Run(missPathBody(p))
			}
			return j, err
		}
	}
	workloads := []struct {
		name string
		run  func(machine.OpMode) (*Job, error)
	}{
		{"mixed", func(mode machine.OpMode) (*Job, error) {
			j, _, run, err := mixedJobHooked(mode, nil, nil)
			if err == nil {
				err = run()
			}
			return j, err
		}},
		{"scatter-dirty", body(scatterProgram(40_000), machine.DefaultParams())},
		{"strided-xline", body(stridedProgram(40_000), machine.DefaultParams())},
		// The memory-side L3 engine is the detector's other regime (eight
		// engines, strides up to 16 lines, no packed-byte screen).
		{"scatter-dirty/l3pf2", body(scatterProgram(40_000), l3pf)},
		{"strided-xline/l3pf2", body(stridedProgram(40_000), l3pf)},
	}
	var got strings.Builder
	for _, w := range workloads {
		for _, mode := range []machine.OpMode{machine.VNM, machine.Dual, machine.SMP4} {
			j, err := w.run(mode)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			d := statehash.Sum128(historicState(t, j))
			fmt.Fprintf(&got, "%s %s %016x%016x\n", w.name, mode, d.Hi, d.Lo)
		}
	}

	checkGolden(t, "machine_state.golden", got.String())
}

// checkGolden compares got, one digest per line, with testdata/name
// (rewriting the file instead under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d workload states, %s holds %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("machine state moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestL3GeometryStateGolden is TestMachineStateGolden for the L3 geometries
// it never boots: the 256-byte minimum (one line, so one set of one way per
// bank), 4 KB (two sets of eight ways per bank) and 6 MB (a 3 MB bank is
// not ways×2^k lines at 8 ways, so it widens to 2048 sets × 12 ways). The
// body adds point-to-point traffic, so L3Copy (intra-node) and DMADeliver
// (inter-node) allocate in the L3 too, and the memory-side L3 engine runs
// on every geometry.
func TestL3GeometryStateGolden(t *testing.T) {
	body := func(p *isa.Program) func(*Rank) {
		return func(r *Rank) {
			n := r.Size()
			r.Exec(p)
			r.SendRecv((r.ID()+1)%n, 24<<10, (r.ID()+n-1)%n)
			r.Allreduce(256)
			r.Exec(p)
			r.Barrier()
		}
	}
	var got strings.Builder
	for _, l3 := range []struct {
		name  string
		bytes int
	}{{"256B", 256}, {"4KB", 4 << 10}, {"6MB", 6 << 20}} {
		params := machine.DefaultParams()
		params.Node.L3Bytes = l3.bytes
		params.Node.L3PrefetchDepth = 2
		for _, p := range []*isa.Program{scatterProgram(10_000), stridedProgram(10_000)} {
			for _, mode := range []machine.OpMode{machine.VNM, machine.SMP4} {
				m := machine.New(2, mode, params)
				j, err := NewJob(m, m.MaxRanks())
				if err == nil {
					err = j.Run(body(p))
				}
				if err != nil {
					t.Fatalf("%s %s %s: %v", l3.name, p.Name, mode, err)
				}
				d := statehash.Sum128(historicState(t, j))
				fmt.Fprintf(&got, "%s %s %s %016x%016x\n", l3.name, p.Name, mode, d.Hi, d.Lo)
			}
		}
	}
	checkGolden(t, "l3_geometry_state.golden", got.String())
}
