package mpi

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"bgpsim/internal/epochmemo"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
)

// The epoch memo's contract is byte-exactness: a run that replays cached
// epochs must leave the simulated machine in exactly the state a live run
// leaves it in, and rank bodies must observe exactly the same op results.
// These tests drive mixed workloads (compute, random-access kernels,
// point-to-point with AnySource, every collective) through memo-less runs
// and the memo's three passes over one cache — a first-sight pass that only
// marks its cuts, a recording pass, a replaying pass — and compare full
// machine state vectors word for word.

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

// mixedJob builds the mixed workload's job on a fresh machine; run
// executes it, filling results.
func mixedJob(cache *epochmemo.Cache) (j *Job, results [][]int, run func() error, err error) {
	m := machine.New(2, machine.VNM, machine.DefaultParams())
	if j, err = NewJob(m, 8); err != nil {
		return nil, nil, nil, err
	}
	if cache != nil {
		j.EnableEpochMemo(cache, "memo-test-v1")
	}
	results = make([][]int, 8)
	body := mixedBody(computeProgram(120_000), randomProgram(60_000), results)
	return j, results, func() error { return j.Run(body) }, nil
}

func runMixed(t *testing.T, cache *epochmemo.Cache) (*Job, [][]int) {
	t.Helper()
	j, results, run, err := mixedJob(cache)
	if err == nil {
		err = run()
	}
	if err != nil {
		t.Fatal(err)
	}
	return j, results
}

// memoPerf is a job's memo counters, for exact per-pass comparisons.
type memoPerf struct{ hits, misses, firstSights, stores, corrupt uint64 }

func memoPerfOf(j *Job) memoPerf {
	p := j.Perf()
	return memoPerf{p.EpochMemoHits, p.EpochMemoMisses, p.EpochMemoFirstSights, p.EpochMemoStores, p.EpochMemoCorrupt}
}

// The mixed workload has five cuts and so four closed epochs; the epoch
// after the last cut runs to job end and is never closed. Its three passes
// over one cache:
var (
	mixedFirstSight = memoPerf{misses: 5, firstSights: 5} // marks only
	mixedRecording  = memoPerf{misses: 5, stores: 4}      // every mark recurs
	mixedReplaying  = memoPerf{hits: 4, misses: 1}        // the last cut opens the unclosed epoch
)

func TestEpochMemoReplayByteIdentical(t *testing.T) {
	plain, plainResults := runMixed(t, nil)
	want := machineState(plain)

	cache := epochmemo.New(0)
	for _, pass := range []struct {
		name string
		perf memoPerf
	}{
		{"first-sight", mixedFirstSight},
		{"recording", mixedRecording},
		{"replaying", mixedReplaying},
	} {
		j, results := runMixed(t, cache)
		diffStates(t, pass.name+" memo run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != pass.perf {
			t.Fatalf("%s pass perf = %+v, want %+v", pass.name, got, pass.perf)
		}
		for r := range plainResults {
			for i := range plainResults[r] {
				if results[r][i] != plainResults[r][i] {
					t.Fatalf("%s pass: rank %d op result %d = %d, plain %d",
						pass.name, r, i, results[r][i], plainResults[r][i])
				}
			}
		}
	}
}

// TestEpochMemoSecondSight pins the admission policy: the first pass over a
// cache leaves only seen-marks, the second records, the third replays — and
// a mark that is gone by the time its key recurs costs a first sight, never
// a wrong replay.
func TestEpochMemoSecondSight(t *testing.T) {
	plain, _ := runMixed(t, nil)
	want := machineState(plain)

	t.Run("marks-then-entries-then-replay", func(t *testing.T) {
		cache := epochmemo.New(0)
		j, _ := runMixed(t, cache)
		diffStates(t, "first-sight pass vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedFirstSight {
			t.Fatalf("first-sight pass perf = %+v, want %+v", got, mixedFirstSight)
		}
		if s := cache.Stats(); s.Entries != 5 || s.Cost > 5<<10 {
			t.Fatalf("first-sight pass left %d entries costing %d B, want 5 marks under 1 KiB each", s.Entries, s.Cost)
		}
		for _, k := range cache.Keys() {
			if _, recorded := cache.Peek(k).(*epochEntry); recorded {
				t.Fatalf("first-sight pass recorded an entry under %x", k[:4])
			}
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "recording pass vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedRecording {
			t.Fatalf("recording pass perf = %+v, want %+v", got, mixedRecording)
		}
		if s := cache.Stats(); s.Entries != 5 {
			t.Fatalf("recording pass left %d entries, want 5 (four entries in place of their marks, one mark)", s.Entries)
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "replaying pass vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("replaying pass perf = %+v, want %+v", got, mixedReplaying)
		}
	})

	// A budget of one mark: each cut's mark evicts the previous cut's, so
	// no key still carries one when it recurs. Every pass is a first-sight
	// pass; nothing is ever recorded, nothing is ever replayed.
	t.Run("evicted-mark-is-a-first-sight", func(t *testing.T) {
		cache := epochmemo.New(epochmemo.SeenCost)
		for pass := 1; pass <= 3; pass++ {
			j, _ := runMixed(t, cache)
			diffStates(t, "run under mark eviction vs plain", want, machineState(j))
			if got := memoPerfOf(j); got != mixedFirstSight {
				t.Fatalf("pass %d perf = %+v, want %+v", pass, got, mixedFirstSight)
			}
		}
		if s := cache.Stats(); s.Entries != 1 || s.Evictions == 0 {
			t.Fatalf("cache stats %+v, want one surviving mark and evictions", s)
		}
	})

	// Two sweep workers meeting the same keys at the same time: both may
	// mark, both may record, either may replay the other's entry mid-pass.
	// Whatever the interleaving, every run is exact (and, under -race,
	// free of data races on the shared entries and the vector pool).
	t.Run("concurrent-workers", func(t *testing.T) {
		cache := epochmemo.New(0)
		for round := 0; round < 3; round++ {
			var wg sync.WaitGroup
			jobs := make([]*Job, 2)
			errs := make([]error, 2)
			for w := range jobs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					j, _, run, err := mixedJob(cache)
					if err == nil {
						err = run()
					}
					jobs[w], errs[w] = j, err
				}(w)
			}
			wg.Wait()
			for w, j := range jobs {
				if errs[w] != nil {
					t.Fatalf("round %d worker %d: %v", round, w, errs[w])
				}
				diffStates(t, "concurrent worker vs plain", want, machineState(j))
			}
		}
		// Sequentially the third pass replays all four epochs; however the
		// workers interleaved, a fourth run cannot do worse.
		j, _ := runMixed(t, cache)
		diffStates(t, "run after concurrent rounds vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("run after concurrent rounds perf = %+v, want %+v", got, mixedReplaying)
		}
	})
}

// storedEntries returns the epoch entries resident in cache, marks skipped.
func storedEntries(cache *epochmemo.Cache) []*epochEntry {
	var ents []*epochEntry
	for _, k := range cache.Keys() {
		if ent, ok := cache.Peek(k).(*epochEntry); ok {
			ents = append(ents, ent)
		}
	}
	return ents
}

// TestEpochMemoEntryCost pins what -epochmemo-bytes bounds: entries hold
// no spare capacity, and the cost the store is charged is the heap the
// entries really occupy — measured, not recomputed, by letting the
// collector free them.
func TestEpochMemoEntryCost(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // collections below are explicit
	heap := func() uint64 {
		// Twice: the first cycle only demotes pooled state vectors to the
		// pool's victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	cache := epochmemo.New(0)
	runMixed(t, cache) // first sight
	runMixed(t, cache) // recording
	ents := storedEntries(cache)
	if len(ents) != 4 {
		t.Fatalf("%d entries stored, want 4", len(ents))
	}
	for _, ent := range ents {
		if cap(ent.diffIdx) != len(ent.diffIdx) || cap(ent.diffVal) != len(ent.diffVal) {
			t.Errorf("diff of %d words held in capacity %d/%d", len(ent.diffIdx), cap(ent.diffIdx), cap(ent.diffVal))
		}
		for r := range ent.ranks {
			er := &ent.ranks[r]
			if cap(er.recvSeq) != len(er.recvSeq) || cap(er.rngSeq) != len(er.rngSeq) {
				t.Errorf("rank %d sequences: recvSeq %d/%d, rngSeq %d/%d (len/cap)",
					r, len(er.recvSeq), cap(er.recvSeq), len(er.rngSeq), cap(er.rngSeq))
			}
		}
	}
	cost := cache.Stats().Cost
	ents = nil

	with := heap()
	runtime.KeepAlive(cache)
	cache = nil
	without := heap()
	held := int64(with) - int64(without)
	if diff := cost - held; diff > held/10 || diff < -held/10 {
		t.Fatalf("store charged %d B for entries that hold %d B of heap; want within 10%%", cost, held)
	}
}

// TestMemoVectorsPooled pins the state vectors' buffer discipline: a job
// takes them from the pool and returns them when Run returns — also when it
// returns because a body panicked or the job deadlocked — so a run of a
// geometry the process has already run allocates no vectors.
func TestMemoVectorsPooled(t *testing.T) {
	// One P and no background collections: sync.Pool is per-P and emptied
	// by the collector, and the assertions below count on neither.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainPool := func() {
		for vecPool.Get() != nil {
		}
	}
	allocated := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	cache := epochmemo.New(0)
	drainPool()
	var bytes [3]uint64 // first sight, recording, replaying
	for pass := range bytes {
		j, _, run, err := mixedJob(cache)
		if err != nil {
			t.Fatal(err)
		}
		bytes[pass] = allocated(run)
		if j.memo.vec != nil || j.memo.preVec != nil {
			t.Fatalf("pass %d: job still holds its state vectors after Run", pass+1)
		}
	}
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, so reuse is not something a test can count on there.
	if !raceEnabled && bytes[2] > bytes[0]/2 {
		t.Errorf("replaying run allocated %d B, the first run of the geometry %d B; want under half (vector reuse)",
			bytes[2], bytes[0])
	}

	for _, abort := range []struct {
		name string
		body func(r *Rank)
	}{
		{"panicking-body", func(r *Rank) {
			r.Barrier()
			if r.ID() == 3 {
				panic("boom")
			}
			r.Barrier()
		}},
		{"deadlock", func(r *Rank) {
			r.Barrier()
			if r.ID() == 0 {
				r.Recv(1) // nobody sends
			}
			r.Barrier()
		}},
	} {
		m := machine.New(2, machine.VNM, machine.DefaultParams())
		j, err := NewJob(m, 8)
		if err != nil {
			t.Fatal(err)
		}
		j.EnableEpochMemo(cache, "memo-abort-test-"+abort.name)
		drainPool()
		if err := j.Run(abort.body); err == nil {
			t.Fatalf("%s: Run returned no error", abort.name)
		}
		if j.memo == nil || j.memo.vec != nil {
			t.Fatalf("%s: aborted job kept its state vector", abort.name)
		}
		if !raceEnabled && vecPool.Get() == nil {
			t.Errorf("%s: aborted job did not return its state vector to the pool", abort.name)
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
	runMixed(t, cache) // first sight marks the cuts
	runMixed(t, cache) // the recording pass populates the cache
	ents := storedEntries(cache)
	stored := uint64(len(ents))
	if stored == 0 {
		t.Fatal("recording pass stored nothing")
	}

	// Flip one bit in every cached entry's recorded machine diff.
	for _, ent := range ents {
		if len(ent.diffVal) == 0 {
			t.Fatal("entry has no diff to tamper with")
		}
		ent.diffVal[0] ^= 1
	}

	// A key whose entry failed its checksum has recurred by definition:
	// the epoch re-simulates and re-records at once.
	tampered, _ := runMixed(t, cache)
	diffStates(t, "run over tampered cache vs plain", want, machineState(tampered))
	if got, want := memoPerfOf(tampered), (memoPerf{misses: 5, stores: stored, corrupt: stored}); got != want {
		t.Fatalf("run over tampered cache perf = %+v, want %+v (damage counted, never replayed)", got, want)
	}
	if s := cache.Stats(); s.Corrupt != stored {
		t.Fatalf("cache stats %+v, want %d corrupt", s, stored)
	}

	// The re-simulated epochs were re-stored intact: the next run replays.
	again, _ := runMixed(t, cache)
	diffStates(t, "recovered cache replaying run vs plain", want, machineState(again))
	if got := memoPerfOf(again); got != mixedReplaying {
		t.Fatalf("recovered cache perf = %+v, want %+v", got, mixedReplaying)
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
	// Three cuts, two closed epochs.
	for _, pass := range []struct {
		name string
		perf memoPerf
	}{
		{"first-sight", memoPerf{misses: 3, firstSights: 3}},
		{"recording", memoPerf{misses: 3, stores: 2}},
		{"replaying", memoPerf{hits: 2, misses: 1}},
	} {
		j := run(cache)
		diffStates(t, "smp "+pass.name+" vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != pass.perf {
			t.Fatalf("smp %s pass perf = %+v, want %+v", pass.name, got, pass.perf)
		}
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
