package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
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
// and the memo's three passes over one cache — the identity's first run,
// which only leaves its mark; a recording run; a replaying run — and compare
// full machine state vectors word for word.

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
	return mixedBodyHooked(p1, p2, results, nil)
}

// mixedBodyHooked is mixedBody with a callback each rank makes between the
// second and third cut — not an MPI op, so the memo's keys do not see it.
func mixedBodyHooked(p1, p2 *isa.Program, results [][]int, mid func(*Rank)) func(*Rank) {
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
		if mid != nil {
			mid(r)
		}
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
	return mixedJobHooked(machine.VNM, cache, nil)
}

// mixedJobHooked is mixedJob on two nodes filled to capacity in the given
// operating mode — 8 ranks in VNM, 4 two-thread ranks in DUAL, 2 four-thread
// ranks in SMP/4 — with mixedBodyHooked's callback.
func mixedJobHooked(mode machine.OpMode, cache *epochmemo.Cache, mid func(*Rank)) (j *Job, results [][]int, run func() error, err error) {
	m := machine.New(2, mode, machine.DefaultParams())
	if j, err = NewJob(m, m.MaxRanks()); err != nil {
		return nil, nil, nil, err
	}
	if cache != nil {
		j.EnableEpochMemo(cache, "memo-test-v1 "+mode.String())
	}
	results = make([][]int, j.Size())
	body := mixedBodyHooked(computeProgram(120_000), randomProgram(60_000), results, mid)
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
type memoPerf struct {
	hits, misses, firstSights, stores, corrupt uint64
	flattens, materializations                 uint64
}

func memoPerfOf(j *Job) memoPerf {
	p := j.Perf()
	return memoPerf{p.EpochMemoHits, p.EpochMemoMisses, p.EpochMemoFirstSights, p.EpochMemoStores, p.EpochMemoCorrupt,
		p.EpochMemoFlattens, p.EpochMemoMaterializations}
}

// chainKeys returns the keys of the epoch entries resident in cache in the
// order a run meets them: the entry of the first cut is the one no other
// entry names as its nextKey, and each entry names its successor.
func chainKeys(t *testing.T, cache *epochmemo.Cache) []epochmemo.Key {
	t.Helper()
	ents := map[epochmemo.Key]*epochEntry{}
	named := map[epochmemo.Key]bool{}
	for _, k := range cache.Keys() {
		if ent, ok := cache.Peek(k).(*epochEntry); ok {
			ents[k] = ent
			named[ent.nextKey] = true
		}
	}
	var chain []epochmemo.Key
	for k := range ents {
		if !named[k] {
			chain = append(chain, k)
		}
	}
	if len(chain) != 1 {
		t.Fatalf("cache holds %d chain heads among %d entries, want one chain", len(chain), len(ents))
	}
	for ent := ents[chain[0]]; ents[ent.nextKey] != nil; ent = ents[ent.nextKey] {
		chain = append(chain, ent.nextKey)
	}
	if len(chain) != len(ents) {
		t.Fatalf("chain links %d of %d entries", len(chain), len(ents))
	}
	return chain
}

// The mixed workload has five cuts and so four closed epochs; the epoch
// after the last cut runs to job end and is never closed. Its three passes
// over one cache, with the whole-machine passes each is allowed:
var (
	// The identity's first run leaves its mark and touches nothing else.
	mixedFirstSight = memoPerf{misses: 5, firstSights: 5}
	// The second run flattens at every cut: once to key the first, then to
	// close each recording.
	mixedRecording = memoPerf{misses: 5, stores: 4, flattens: 5}
	// The third flattens once to find the chain, follows it by key, and
	// writes the machine back once, when the last cut opens the unclosed
	// epoch.
	mixedReplaying = memoPerf{hits: 4, misses: 1, flattens: 1, materializations: 1}
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

// TestEpochMemoSecondSight pins the admission policy, which is per run
// identity: the first run over a cache leaves one mark and does no memo work
// at all, the second records, the third replays with a single write-back —
// and a mark that is gone by the time its identity recurs costs a first run,
// never a wrong replay.
func TestEpochMemoSecondSight(t *testing.T) {
	plain, _ := runMixed(t, nil)
	want := machineState(plain)

	t.Run("marks-then-entries-then-replay", func(t *testing.T) {
		cache := epochmemo.New(0)
		j, _ := runMixed(t, cache)
		diffStates(t, "first run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedFirstSight {
			t.Fatalf("first run perf = %+v, want %+v", got, mixedFirstSight)
		}
		if s := cache.Stats(); s.Entries != 1 || s.Cost != epochmemo.SeenCost {
			t.Fatalf("first run left %d entries costing %d B, want the identity's one mark (%d B)",
				s.Entries, s.Cost, epochmemo.SeenCost)
		}
		if n := len(storedEntries(cache)); n != 0 {
			t.Fatalf("first run recorded %d entries", n)
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "recording run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedRecording {
			t.Fatalf("recording run perf = %+v, want %+v", got, mixedRecording)
		}
		if s := cache.Stats(); s.Entries != 5 {
			t.Fatalf("recording run left %d entries, want 5 (the mark and four epochs)", s.Entries)
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "replaying run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("replaying run perf = %+v, want %+v", got, mixedReplaying)
		}
	})

	// The mark is the least recently used thing a recording run leaves
	// behind, so cache pressure takes it first. The identity's next run is
	// then a first run again — wholly live, although every epoch it passes
	// through is still in the cache — and the run after that replays.
	t.Run("evicted-mark-is-a-first-sight", func(t *testing.T) {
		cache := epochmemo.New(0)
		runMixed(t, cache)
		runMixed(t, cache)
		cache.SetBudget(cache.Stats().Cost - 1)
		if s := cache.Stats(); s.Evictions != 1 || s.Entries != 4 || len(storedEntries(cache)) != 4 {
			t.Fatalf("cache stats %+v, want the mark evicted and the four epochs kept", s)
		}
		cache.SetBudget(0)

		j, _ := runMixed(t, cache)
		diffStates(t, "run after its mark was evicted vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedFirstSight {
			t.Fatalf("run after its mark was evicted perf = %+v, want %+v", got, mixedFirstSight)
		}
		j, _ = runMixed(t, cache)
		diffStates(t, "run after the mark came back vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("run after the mark came back perf = %+v, want %+v", got, mixedReplaying)
		}
	})

	// Two sweep workers meeting one unseen identity at the same time: both
	// may be told it is new, or one may find the other's mark and record
	// while the other runs idle; later rounds record and replay each
	// other's entries mid-pass. Whatever the interleaving, every run is
	// exact (and, under -race, free of data races on the shared entries and
	// the vector pool).
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
		// Both workers of the second round were admitted, so by now every
		// epoch is stored: a further run replays them all.
		j, _ := runMixed(t, cache)
		diffStates(t, "run after concurrent rounds vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("run after concurrent rounds perf = %+v, want %+v", got, mixedReplaying)
		}
	})
}

// TestEpochMemoLazyChain breaks a recorded chain in the middle, so that a
// replaying run has the state vector ahead of the machine when it must run
// live again: epochs 1 and 2 replay into the vector, the third cut finds no
// usable entry (or a freshly armed UPC handler), and everything from there
// on depends on the write-back having restored the whole machine — in the
// threaded modes including the worker cores the skipped epochs drove.
func TestEpochMemoLazyChain(t *testing.T) {
	// armHandler runs inside the second (replayed) epoch. The handler is
	// inert (no threshold is set); its presence is what the memo must notice.
	armHandler := func(r *Rank) {
		if r.ID() == 0 {
			r.Node().UPC.SetInterruptHandler(func(int, uint64) {})
		}
	}
	breaks := []struct {
		name string
		// sabotage damages the warm cache's chain; mid is the third run's
		// (and the reference run's) callback between cuts 2 and 3.
		sabotage func(t *testing.T, cache *epochmemo.Cache)
		mid      func(*Rank)
		perf     memoPerf
	}{
		// Cut 3 misses: write back, record epoch 3 live, pick the chain up
		// again at cut 4, write back again at the last cut.
		{"deleted-entry", func(t *testing.T, cache *epochmemo.Cache) {
			cache.Delete(chainKeys(t, cache)[2])
		}, nil, memoPerf{hits: 3, misses: 2, stores: 1, flattens: 2, materializations: 2}},
		{"tampered-entry", func(t *testing.T, cache *epochmemo.Cache) {
			cache.Peek(chainKeys(t, cache)[2]).(*epochEntry).diffVal[0] ^= 1
		}, nil, memoPerf{hits: 3, misses: 2, stores: 1, corrupt: 1, flattens: 2, materializations: 2}},
		// Cut 3 finds the handler: write back, then live to the end with
		// the memo off (its cuts no longer count).
		{"upc-handler-armed", func(*testing.T, *epochmemo.Cache) {}, armHandler,
			memoPerf{hits: 2, flattens: 1, materializations: 1}},
	}
	for _, mode := range []machine.OpMode{machine.VNM, machine.SMP4, machine.Dual} {
		for _, ff := range []string{"ff-on", "ff-off"} {
			for _, br := range breaks {
				t.Run(strings.ReplaceAll(mode.String(), "/", "")+"/"+ff+"/"+br.name, func(t *testing.T) {
					run := func(cache *epochmemo.Cache, mid func(*Rank)) (*Job, [][]int) {
						j, results, run, err := mixedJobHooked(mode, cache, mid)
						if err != nil {
							t.Fatal(err)
						}
						j.SetFastForward(ff == "ff-on")
						if err := run(); err != nil {
							t.Fatal(err)
						}
						return j, results
					}
					plain, plainResults := run(nil, br.mid)
					want := machineState(plain)

					cache := epochmemo.New(0)
					run(cache, nil) // the identity's first run
					run(cache, nil) // records epochs 1 to 4
					br.sabotage(t, cache)
					j, results := run(cache, br.mid)
					diffStates(t, "run over the broken chain vs plain", want, machineState(j))
					if got := memoPerfOf(j); got != br.perf {
						t.Fatalf("run over the broken chain perf = %+v, want %+v", got, br.perf)
					}
					for r := range plainResults {
						for i := range plainResults[r] {
							if results[r][i] != plainResults[r][i] {
								t.Fatalf("rank %d op result %d = %d, plain %d", r, i, results[r][i], plainResults[r][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestEpochMemoLiveAfterReplayedArrivals pins who counts as the last
// arriver at a cut that closes a replayed epoch and completes live. The
// last arriver takes its release before yielding, the waiters when next
// dispatched, so it decides the order in which the ranks' next accesses meet
// the shared L3. Live, the rank dispatched last arrives last; replayed,
// ranks arrive in clock order — here a different rank, because the random
// gather runs a rank dispatched early past its peers. The never-closed tail
// starts with an Exec, which makes the order visible in the L3's recency
// words.
func TestEpochMemoLiveAfterReplayedArrivals(t *testing.T) {
	p1, p2 := computeProgram(40_000), randomProgram(20_000)
	for _, c := range []struct {
		mode         machine.OpMode
		nodes, ranks int
	}{{machine.VNM, 2, 8}, {machine.VNM, 1, 2}, {machine.Dual, 2, 4}} {
		run := func(cache *epochmemo.Cache) *Job {
			m := machine.New(c.nodes, c.mode, machine.DefaultParams())
			j, err := NewJob(m, c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			if cache != nil {
				j.EnableEpochMemo(cache, "memo-arrivals-test-v1")
			}
			err = j.Run(func(r *Rank) {
				r.Exec(p1)
				r.Barrier()
				r.Exec(p2)
				r.Allreduce(64)
				r.Exec(p1)
			})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		want := machineState(run(nil))
		cache := epochmemo.New(0)
		for _, pass := range []string{"first", "recording", "replaying"} {
			diffStates(t, fmt.Sprintf("%v/%d ranks, %s run vs plain", c.mode, c.ranks, pass), want, machineState(run(cache)))
		}
	}
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
// takes none until something flattens — the first run of an identity never
// does — takes them from the pool when it does, and returns them when Run
// returns, also when it returns because a body panicked or the job
// deadlocked in the middle of a replayed chain. So a run of a geometry the
// process has already run allocates no vectors.
func TestMemoVectorsPooled(t *testing.T) {
	// One P and no background collections: sync.Pool is per-P and emptied
	// by the collector, and the assertions below count on neither.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// pooled empties the pool and reports how many vectors it held. Under
	// the race detector sync.Pool drops a quarter of its Puts on purpose, so
	// reuse is not something a test can count on there.
	pooled := func() (n int) {
		for vecPool.Get() != nil {
			n++
		}
		return n
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
	pooled()
	var bytes [3]uint64 // first run, recording, replaying
	for pass := range bytes {
		j, _, run, err := mixedJob(cache)
		if err != nil {
			t.Fatal(err)
		}
		bytes[pass] = allocated(run)
		if j.memo.vec != nil || j.memo.preVec != nil {
			t.Fatalf("pass %d: job still holds its state vectors after Run", pass+1)
		}
		if pass == 0 {
			if n := pooled(); n != 0 {
				t.Fatalf("the identity's first run put %d vectors into an empty pool: it took some", n)
			}
		}
	}
	// The recording run found the pool empty and made both vectors; the
	// first run needed none and the replaying run found both pooled.
	if !raceEnabled && (bytes[0] > bytes[1]/2 || bytes[2] > bytes[1]/2) {
		t.Errorf("first run allocated %d B, recording run %d B, replaying run %d B; want the first and the last under half the recording run's",
			bytes[0], bytes[1], bytes[2])
	}

	// Abort in the middle of a chain. The cache is warmed by two clean
	// runs and loses its first entry, so the aborting run records epoch 1
	// (holding both buffers), replays epoch 2 into the vector, and ends
	// there with the vector ahead of the machine.
	for _, abort := range []struct {
		name  string
		leave func(r *Rank) bool // called inside epoch 2; true ends the rank's body
	}{
		{"panicking-body", func(r *Rank) bool {
			if r.ID() == 3 {
				panic("boom")
			}
			return false
		}},
		// Rank 0 leaves; its peers wait at the third cut for ever.
		{"deadlock", func(r *Rank) bool { return r.ID() == 0 }},
	} {
		p := computeProgram(20_000)
		cache := epochmemo.New(0)
		run := func(leave func(r *Rank) bool) (*Job, error) {
			m := machine.New(2, machine.VNM, machine.DefaultParams())
			j, err := NewJob(m, 8)
			if err != nil {
				t.Fatal(err)
			}
			j.EnableEpochMemo(cache, "memo-abort-test-"+abort.name)
			return j, j.Run(func(r *Rank) {
				r.Barrier()
				r.Exec(p)
				r.Barrier()
				r.Exec(p)
				if leave != nil && leave(r) {
					return
				}
				r.Barrier()
				r.Exec(p)
				r.Barrier()
			})
		}
		for pass := 1; pass <= 2; pass++ {
			if _, err := run(nil); err != nil {
				t.Fatalf("%s: warm-up run %d: %v", abort.name, pass, err)
			}
		}
		cache.Delete(chainKeys(t, cache)[0])

		pooled()
		j, err := run(abort.leave)
		if err == nil {
			t.Fatalf("%s: Run returned no error", abort.name)
		}
		if got, want := memoPerfOf(j), (memoPerf{hits: 1, misses: 1, stores: 1, flattens: 2, materializations: 1}); got != want {
			t.Fatalf("%s: perf = %+v, want %+v (one write-back, made on the way out)", abort.name, got, want)
		}
		if j.memo.vec != nil || j.memo.preVec != nil {
			t.Fatalf("%s: aborted job kept a state vector", abort.name)
		}
		if n := pooled(); !raceEnabled && n != 2 {
			t.Errorf("%s: aborted job returned %d state vectors to the pool, want both", abort.name, n)
		}
	}
}

// TestEpochMemoCorruptEntryDetected damages a cached epoch in place and
// pins the integrity contract: the checksum catches the corruption at the
// next probe, the run re-simulates (byte-identical to a plain run), and
// the damage is counted — never replayed. The checksum covers every field
// replay consumes: one flipped word in any of them is a miss.
func TestEpochMemoCorruptEntryDetected(t *testing.T) {
	t.Run("every-entry", testCorruptEveryEntry)
	t.Run("every-field", testCorruptEveryField)
}

func testCorruptEveryEntry(t *testing.T) {
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
	if got, want := memoPerfOf(tampered), (memoPerf{misses: 5, stores: stored, corrupt: stored, flattens: 5}); got != want {
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

func testCorruptEveryField(t *testing.T) {
	// Three cuts; the epoch between the first two populates every field
	// class of its entry, a message left pending across the cut included.
	p1, p2 := computeProgram(40_000), randomProgram(20_000)
	run := func(cache *epochmemo.Cache) *Job {
		t.Helper()
		m := machine.New(2, machine.VNM, machine.DefaultParams())
		j, err := NewJob(m, 8)
		if err != nil {
			t.Fatal(err)
		}
		if cache != nil {
			j.EnableEpochMemo(cache, "memo-fields-test-v1")
		}
		err = j.Run(func(r *Rank) {
			n := r.Size()
			next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
			r.Exec(p1)
			r.Barrier()
			r.Send(next, 512+r.ID())
			got := r.Recv(prev)
			r.Send(next, 64) // still in next's mailbox at the cut
			r.Exec(p2)
			r.Compute(uint64(got))
			r.Allreduce(64)
			r.Recv(prev)
			r.Reduce(0, 32)
			r.Exec(p1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	want := machineState(run(nil))
	cache := epochmemo.New(0)
	run(cache)
	run(cache)

	for _, field := range []struct {
		name string
		flip func(ent *epochEntry)
	}{
		{"diffIdx", func(ent *epochEntry) { ent.diffIdx[len(ent.diffIdx)-1] ^= 1 }},
		{"diffVal", func(ent *epochEntry) { ent.diffVal[len(ent.diffVal)/2] ^= 1 << 40 }},
		{"nextKey", func(ent *epochEntry) { ent.nextKey[17] ^= 1 }},
		{"closeOp", func(ent *epochEntry) { ent.closeOp ^= 1 }},
		{"closeBytes", func(ent *epochEntry) { ent.closeBytes++ }},
		{"closeLast", func(ent *epochEntry) { ent.closeLast ^= 1 }},
		{"budget", func(ent *epochEntry) { ent.ranks[5].budget++ }},
		{"recvSeq", func(ent *epochEntry) { ent.ranks[2].recvSeq[0]++ }},
		{"rngSeq", func(ent *epochEntry) { ent.ranks[7].rngSeq[0] ^= 1 }},
		{"mailbox-bytes", func(ent *epochEntry) { ent.ranks[1].mailbox[0][0].bytes++ }},
		{"mailbox-arrival", func(ent *epochEntry) { ent.ranks[1].mailbox[0][0].arrival++ }},
	} {
		ent := cache.Peek(chainKeys(t, cache)[0]).(*epochEntry)
		field.flip(ent)
		// The first cut's entry fails its checksum and its epoch re-records;
		// the second cut's entry is intact and replays.
		j := run(cache)
		diffStates(t, field.name+" flipped: run vs plain", want, machineState(j))
		wantPerf := memoPerf{hits: 1, misses: 2, stores: 1, corrupt: 1, flattens: 2, materializations: 1}
		if got := memoPerfOf(j); got != wantPerf {
			t.Fatalf("%s flipped: perf = %+v, want %+v", field.name, got, wantPerf)
		}
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
		{"recording", memoPerf{misses: 3, stores: 2, flattens: 3}},
		{"replaying", memoPerf{hits: 2, misses: 1, flattens: 1, materializations: 1}},
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
