package mpi

import (
	"testing"

	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
)

// The epoch memo's contract is byte-exactness: a run that replays cached
// epochs must leave the simulated machine in exactly the state a live run
// leaves it in, and rank bodies must observe exactly the same op results.
// These tests drive mixed workloads (compute, random-access kernels,
// point-to-point with AnySource, every collective) through cold runs,
// warm replay runs, and memo-less runs, and compare full machine state
// vectors word for word.

func randomProgram(trips int64) *isa.Program {
	return &isa.Program{
		Name:    "scatter",
		Regions: []isa.Region{{Name: "t", Size: 1 << 18}},
		Loops: []isa.Loop{{
			Name:  "g",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.FPAddSub},
				{Class: isa.Load, Pat: isa.Random, Region: 0},
				{Class: isa.Store, Pat: isa.Seq, Region: 0, Stride: 8},
			},
		}},
	}
}

// machineState flattens every hosting node of a finished job.
func machineState(j *Job) []uint64 {
	var out []uint64
	for _, id := range j.NodeIDs() {
		n := j.Machine().Nodes[id]
		w := make([]uint64, n.StateLen())
		n.ReadState(w)
		out = append(out, w...)
	}
	return out
}

func diffStates(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: state length %d, want %d", label, len(got), len(want))
	}
	bad := 0
	for i := range want {
		if want[i] != got[i] {
			if bad < 5 {
				t.Errorf("%s: state word %d = %d, want %d", label, i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d state words differ", label, bad, len(want))
	}
}

// mixedBody exercises every op kind across five epochs, with a Recv result
// feeding back into the body's work — the case that forces result replay.
func mixedBody(p1, p2 *isa.Program, results [][]int) func(*Rank) {
	return func(r *Rank) {
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		r.Exec(p1)
		r.Barrier()
		r.Compute(uint64(1000 * (r.ID() + 1)))
		r.Exec(p2)
		r.Allreduce(128)
		r.Send(next, 4096+r.ID())
		got := r.Recv(AnySource)
		results[r.ID()] = append(results[r.ID()], got)
		r.Compute(uint64(got))
		r.Bcast(0, 2048)
		r.Exec(p1) // second execution: the rewind path
		r.Alltoall(512)
		results[r.ID()] = append(results[r.ID()], r.SendRecv(next, 1024, prev))
		r.Reduce(0, 64)
	}
}

func runMixed(t *testing.T, cache *epochmemo.Cache) (*Job, [][]int) {
	t.Helper()
	m := machine.New(2, machine.VNM, machine.DefaultParams())
	j, err := NewJob(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cache != nil {
		j.EnableEpochMemo(cache, "memo-test-v1")
	}
	results := make([][]int, 8)
	if err := j.Run(mixedBody(computeProgram(120_000), randomProgram(60_000), results)); err != nil {
		t.Fatal(err)
	}
	return j, results
}

func TestEpochMemoReplayByteIdentical(t *testing.T) {
	plain, plainResults := runMixed(t, nil)
	want := machineState(plain)

	cache := epochmemo.New(0)
	cold, coldResults := runMixed(t, cache)
	diffStates(t, "cold memo run vs plain", want, machineState(cold))
	// Five cuts: every probe misses; the four interior epochs store.
	if p := cold.Perf(); p.EpochMemoHits != 0 || p.EpochMemoMisses != 5 || p.EpochMemoStores != 4 {
		t.Fatalf("cold perf = %+v, want 0 hits / 5 misses / 4 stores", p)
	}

	warm, warmResults := runMixed(t, cache)
	diffStates(t, "warm memo run vs plain", want, machineState(warm))
	// The four stored epochs replay; the final cut still misses.
	if p := warm.Perf(); p.EpochMemoHits != 4 || p.EpochMemoMisses != 1 || p.EpochMemoStores != 0 {
		t.Fatalf("warm perf = %+v, want 4 hits / 1 miss / 0 stores", p)
	}

	for r := range plainResults {
		for i := range plainResults[r] {
			if coldResults[r][i] != plainResults[r][i] || warmResults[r][i] != plainResults[r][i] {
				t.Fatalf("rank %d op result %d: plain %d, cold %d, warm %d",
					r, i, plainResults[r][i], coldResults[r][i], warmResults[r][i])
			}
		}
	}
}

// TestEpochMemoCorruptEntryDetected damages a cached epoch in place and
// pins the integrity contract: the checksum catches the corruption at the
// next probe, the run re-simulates (byte-identical to a plain run), and
// the damage is counted — never replayed.
func TestEpochMemoCorruptEntryDetected(t *testing.T) {
	plain, _ := runMixed(t, nil)
	want := machineState(plain)

	cache := epochmemo.New(0)
	runMixed(t, cache) // cold run populates the cache
	stored := cache.Stats().Entries
	if stored == 0 {
		t.Fatal("cold run stored nothing")
	}

	// Flip one bit in every cached entry's recorded machine diff.
	for _, k := range cache.Keys() {
		ent := cache.Peek(k).(*epochEntry)
		if len(ent.diffVal) == 0 {
			t.Fatalf("entry %x has no diff to tamper with", k[:4])
		}
		ent.diffVal[0] ^= 1
	}

	warm, _ := runMixed(t, cache)
	diffStates(t, "run over tampered cache vs plain", want, machineState(warm))
	p := warm.Perf()
	if p.EpochMemoHits != 0 {
		t.Fatalf("tampered entries replayed: %+v", p)
	}
	if p.EpochMemoCorrupt != uint64(stored) {
		t.Fatalf("perf = %+v, want %d corrupt probes", p, stored)
	}
	if s := cache.Stats(); s.Corrupt != uint64(stored) {
		t.Fatalf("cache stats %+v, want %d corrupt", s, stored)
	}

	// The re-simulated epochs were re-stored intact: a third run replays.
	again, _ := runMixed(t, cache)
	diffStates(t, "recovered cache warm run vs plain", want, machineState(again))
	if p := again.Perf(); p.EpochMemoHits == 0 || p.EpochMemoCorrupt != 0 {
		t.Fatalf("recovered cache perf = %+v, want hits and no corruption", p)
	}
}

// collectiveBody communicates through collectives only.
func collectiveBody(p1, p2 *isa.Program) func(*Rank) {
	return func(r *Rank) {
		r.Exec(p1)
		r.Barrier()
		r.Compute(uint64(500 * (r.ID()%4 + 1)))
		r.Exec(p2)
		r.Alltoall(256)
		r.Exec(p1)
		r.Allreduce(64)
	}
}

// TestEpochMemoThreadedMode covers the sharded (SMP) execution path, where
// one Exec drives several per-shard states whose RNG positions all replay.
func TestEpochMemoThreadedMode(t *testing.T) {
	run := func(cache *epochmemo.Cache) *Job {
		m := machine.New(2, machine.SMP4, machine.DefaultParams())
		j, err := NewJob(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cache != nil {
			j.EnableEpochMemo(cache, "memo-smp-test-v1")
		}
		if err := j.Run(collectiveBody(computeProgram(60_000), randomProgram(30_000))); err != nil {
			t.Fatal(err)
		}
		return j
	}
	want := machineState(run(nil))
	cache := epochmemo.New(0)
	diffStates(t, "smp cold vs plain", want, machineState(run(cache)))
	warm := run(cache)
	diffStates(t, "smp warm vs plain", want, machineState(warm))
	if p := warm.Perf(); p.EpochMemoHits != 2 {
		t.Fatalf("smp warm perf = %+v, want 2 hits", p)
	}
}

// TestFastForwardOptOut pins that disabling fast-forward changes nothing
// but the dispatch count.
func TestFastForwardOptOut(t *testing.T) {
	run := func(ff bool) *Job {
		m := machine.New(2, machine.VNM, machine.DefaultParams())
		j, err := NewJob(m, 8)
		if err != nil {
			t.Fatal(err)
		}
		j.SetFastForward(ff)
		results := make([][]int, 8)
		if err := j.Run(mixedBody(computeProgram(120_000), randomProgram(60_000), results)); err != nil {
			t.Fatal(err)
		}
		return j
	}
	on := run(true)
	off := run(false)
	diffStates(t, "fast-forward on vs off", machineState(off), machineState(on))
	if p := on.Perf(); p.FFDispatches == 0 || p.FFCycles == 0 {
		t.Fatalf("fast-forward on but never engaged: %+v", p)
	}
	if p := off.Perf(); p.FFDispatches != 0 {
		t.Fatalf("fast-forward off but engaged: %+v", p)
	}
}
