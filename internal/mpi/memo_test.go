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
	"bgpsim/internal/statehash"
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
		w := make([]uint64, statehash.Len(n))
		statehash.Read(n, w)
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

// storedChain returns the one replay chain resident in cache (marks are
// skipped), nil when there is none.
func storedChain(t *testing.T, cache *epochmemo.Cache) *epochChain {
	t.Helper()
	var chain *epochChain
	for _, k := range cache.Keys() {
		if ch, ok := cache.Get(k).(*epochChain); ok {
			if chain != nil {
				t.Fatal("cache holds more than one chain")
			}
			chain = ch
		}
	}
	return chain
}

// The mixed workload has five cuts and so four closed epochs; the epoch
// after the last cut runs to job end and is never closed. Its three passes
// over one cache, with the whole-machine passes each is allowed:
var (
	// The identity's first run leaves its mark and touches nothing else.
	mixedFirstSight = memoPerf{misses: 5, firstSights: 5}
	// The second run flattens at every cut: once for the start digest and
	// the first epoch's base, then to close each epoch; it stores one chain
	// of four.
	mixedRecording = memoPerf{misses: 5, stores: 4, flattens: 5}
	// The third flattens once to check the chain's start digest, walks the
	// chain, and writes the machine back once, when the last cut finds the
	// chain at its end.
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
		if storedChain(t, cache) != nil {
			t.Fatal("first run stored a chain")
		}
		// Idle means idle: no per-rank memo state for the op hook to touch.
		if j.memo.rs != nil || j.ranks[0].memo != nil {
			t.Fatal("first run armed the per-rank memo state")
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "recording run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedRecording {
			t.Fatalf("recording run perf = %+v, want %+v", got, mixedRecording)
		}
		ch := storedChain(t, cache)
		if s := cache.Stats(); s.Entries != 1 || ch == nil || len(ch.entries) != 4 || s.Cost != ch.footprint() {
			t.Fatalf("recording run left %+v, want one entry: a chain of four epochs in the mark's place", s)
		}

		j, _ = runMixed(t, cache)
		diffStates(t, "replaying run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("replaying run perf = %+v, want %+v", got, mixedReplaying)
		}

		// One chain per recorded identity, one mark per identity seen once.
		_, _, run, err := mixedJobHooked(machine.Dual, cache, nil)
		if err == nil {
			err = run()
		}
		if err != nil {
			t.Fatal(err)
		}
		if s := cache.Stats(); s.Entries != 2 || s.Cost != ch.footprint()+epochmemo.SeenCost {
			t.Fatalf("a recorded and a once-seen identity left %+v, want a chain and a mark", s)
		}
	})

	// An identity has one entry — its mark, then its chain — so cache
	// pressure takes all the memo knows of it at once. Its next run is then
	// a first run again, wholly live, and the runs after that record and
	// replay.
	t.Run("evicted-mark-is-a-first-sight", func(t *testing.T) {
		cache := epochmemo.New(0)
		for _, pass := range []struct {
			name  string
			perf  memoPerf
			evict bool // empty the cache after the run
		}{
			{"first run", mixedFirstSight, true},
			{"run after its mark was evicted", mixedFirstSight, false},
			{"recording run", mixedRecording, true},
			{"run after its chain was evicted", mixedFirstSight, false},
			{"second recording run", mixedRecording, false},
			{"replaying run", mixedReplaying, false},
		} {
			j, _ := runMixed(t, cache)
			diffStates(t, pass.name+" vs plain", want, machineState(j))
			if got := memoPerfOf(j); got != pass.perf {
				t.Fatalf("%s perf = %+v, want %+v", pass.name, got, pass.perf)
			}
			if pass.evict {
				cache.SetBudget(1)
				if s := cache.Stats(); s.Entries != 0 {
					t.Fatalf("after %s: cache stats %+v, want the identity's one entry evicted", pass.name, s)
				}
				cache.SetBudget(0)
			}
		}
	})

	// Two sweep workers meeting one unseen identity at the same time: both
	// may be told it is new, or one may find the other's mark and record
	// while the other runs idle; in later rounds both record, then both
	// replay the one chain. Whatever the interleaving, every run is exact
	// (and, under -race, free of data races on the shared chain and the
	// vector pool).
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
		// Both workers of the second round were admitted, so by now the
		// chain is stored: a further run replays all of it.
		j, _ := runMixed(t, cache)
		diffStates(t, "run after concurrent rounds vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != mixedReplaying {
			t.Fatalf("run after concurrent rounds perf = %+v, want %+v", got, mixedReplaying)
		}
	})
}

// TestEpochMemoLazyChain replays chains that end before the run does — cut
// short, damaged, or abandoned for a freshly armed UPC handler — so that the
// run has the state vector ahead of the machine when it must go live: the
// first epochs replay into the vector, and everything from there on depends
// on the write-back having restored the whole machine — in the threaded modes
// including the worker cores the skipped epochs drove. A chain with a
// tampered start digest is not replayed at all.
func TestEpochMemoLazyChain(t *testing.T) {
	// armHandler runs inside the second epoch. The handler is inert (no
	// threshold is set); its presence is what the memo must notice.
	armHandler := func(r *Rank) {
		if r.ID() == 0 {
			r.Node().UPC.SetInterruptHandler(func(int, uint64) {})
		}
	}
	prefix := func(n uint64) memoPerf { // n epochs replayed, then live for good
		return memoPerf{hits: n, misses: 1, flattens: 1, materializations: 1}
	}
	breaks := []struct {
		name string
		// recMid is the recording run's callback between cuts 2 and 3,
		// sabotage damages the chain it stored, and mid is the callback of
		// the run over that chain (and of its reference run).
		recMid   func(*Rank)
		sabotage func(ch *epochChain)
		mid      func(*Rank)
		perf     memoPerf
		// next, when set, is the perf of one more, undisturbed run.
		next memoPerf
	}{
		// The chain lost its last two entries: cut 3 finds it at its end.
		{name: "deleted-entry", sabotage: func(ch *epochChain) { ch.entries = ch.entries[:2] }, perf: prefix(2)},
		// The recording run armed a handler in its second epoch, so its
		// chain holds the first only; the identity's next run does the same
		// in an epoch that runs live.
		{name: "short-recording", recMid: armHandler, mid: armHandler, perf: prefix(1)},
		// Entry 3 of 4 fails its checksum at cut 3: the chain is dropped,
		// and the next run records all four epochs again.
		{name: "tampered-entry", sabotage: func(ch *epochChain) { ch.entries[2].diffVal[0] ^= 1 },
			perf: memoPerf{hits: 2, misses: 1, corrupt: 1, flattens: 1, materializations: 1}, next: mixedRecording},
		// A start digest that does not match is a miss, never a replay: the
		// run records, and its chain replaces the stale one.
		{name: "tampered-start", sabotage: func(ch *epochChain) { ch.start.Lo ^= 1 },
			perf: mixedRecording, next: mixedReplaying},
		// Cut 3 finds the handler: write back, then live to the end with
		// the memo off (its cuts no longer count).
		{name: "upc-handler-armed", mid: armHandler, perf: memoPerf{hits: 2, flattens: 1, materializations: 1}},
	}
	for _, mode := range []machine.OpMode{machine.VNM, machine.SMP4, machine.Dual} {
		for _, ff := range []string{"ff-on", "ff-off"} {
			t.Run(strings.ReplaceAll(mode.String(), "/", "")+"/"+ff, func(t *testing.T) {
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
				plain, plainResults := run(nil, nil)
				armed, armedResults := run(nil, armHandler)
				// One undisturbed recording serves every break that damages
				// the chain afterwards: each works on its own copy.
				warm := epochmemo.New(0)
				run(warm, nil) // the identity's first run
				run(warm, nil) // records epochs 1 to 4
				pristine, key := storedChain(t, warm), warm.Keys()[0]

				for _, br := range breaks {
					t.Run(br.name, func(t *testing.T) {
						want, wantResults := machineState(plain), plainResults
						if br.mid != nil {
							want, wantResults = machineState(armed), armedResults
						}
						cache := epochmemo.New(0)
						if br.recMid != nil {
							run(cache, nil)
							run(cache, br.recMid) // records as far as recMid lets it
						} else {
							ch := &epochChain{start: pristine.start, entries: append([]epochEntry(nil), pristine.entries...)}
							for i := range ch.entries {
								ch.entries[i].diffVal = append([]uint64(nil), ch.entries[i].diffVal...)
							}
							cache.Record(key, ch, ch.footprint())
						}
						if br.sabotage != nil {
							br.sabotage(storedChain(t, cache))
						}
						j, results := run(cache, br.mid)
						diffStates(t, "run over the broken chain vs plain", want, machineState(j))
						if got := memoPerfOf(j); got != br.perf {
							t.Fatalf("run over the broken chain perf = %+v, want %+v", got, br.perf)
						}
						for r := range wantResults {
							for i := range wantResults[r] {
								if results[r][i] != wantResults[r][i] {
									t.Fatalf("rank %d op result %d = %d, plain %d", r, i, results[r][i], wantResults[r][i])
								}
							}
						}
						if br.next != (memoPerf{}) {
							j, _ := run(cache, br.mid)
							diffStates(t, "run after the broken chain vs plain", want, machineState(j))
							if got := memoPerfOf(j); got != br.next {
								t.Fatalf("run after the broken chain perf = %+v, want %+v", got, br.next)
							}
						}
					})
				}
			})
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
	ents := storedChain(t, cache).entries
	if len(ents) != 4 || cap(ents) != 4 {
		t.Fatalf("chain of %d entries in capacity %d, want 4 in 4", len(ents), cap(ents))
	}
	for i := range ents {
		ent := &ents[i]
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
// does — a replaying run takes one and a recording run two, from the pool,
// and they go back when Run returns, also when it returns because a body
// panicked or the job deadlocked in the middle of a replay. So a run of a
// geometry the process has already run allocates no vectors.
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
	// first run needed none and the replaying run found its one pooled.
	if !raceEnabled && (bytes[0] > bytes[1]/2 || bytes[2] > bytes[1]/2) {
		t.Errorf("first run allocated %d B, recording run %d B, replaying run %d B; want the first and the last under half the recording run's",
			bytes[0], bytes[1], bytes[2])
	}
	// A replaying run never records, so it has no use for a diff base: it
	// takes exactly one vector, also at its last cut.
	pooled()
	j, _ := runMixed(t, cache)
	if got := memoPerfOf(j); got != mixedReplaying {
		t.Fatalf("fourth run perf = %+v, want %+v", got, mixedReplaying)
	}
	if n := pooled(); !raceEnabled && n != 1 {
		t.Errorf("a replaying run returned %d state vectors to an empty pool, want the one it took", n)
	}

	// Abort in the middle of the second epoch — of a recording run, which
	// holds both buffers and must not store its truncated chain, and of a
	// replaying run, which ends with its one vector ahead of the machine.
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
		for _, leg := range []struct {
			name    string
			perf    memoPerf
			vectors int
		}{
			{"recording", memoPerf{misses: 2, flattens: 2}, 2},
			{"replaying", memoPerf{hits: 2, flattens: 1, materializations: 1}, 1},
		} {
			if _, err := run(nil); err != nil {
				t.Fatalf("%s: warm-up run: %v", abort.name, err)
			}
			pooled()
			j, err := run(abort.leave)
			if err == nil {
				t.Fatalf("%s, %s: Run returned no error", abort.name, leg.name)
			}
			if got := memoPerfOf(j); got != leg.perf {
				t.Fatalf("%s, %s: perf = %+v, want %+v (nothing stored; a write-back only on a replay's way out)",
					abort.name, leg.name, got, leg.perf)
			}
			if j.memo.vec != nil || j.memo.preVec != nil {
				t.Fatalf("%s, %s: aborted job kept a state vector", abort.name, leg.name)
			}
			if n := pooled(); !raceEnabled && n != leg.vectors {
				t.Errorf("%s, %s: aborted job returned %d state vectors to the pool, want %d", abort.name, leg.name, n, leg.vectors)
			}
			if leg.name == "recording" {
				if s := cache.Stats(); s.Entries != 1 || s.Cost != epochmemo.SeenCost {
					t.Fatalf("%s: aborted recording left %+v, want the identity's mark and no chain", abort.name, s)
				}
			}
		}
	}
}

// TestEpochMemoCorruptEntryDetected damages a stored chain in place and
// pins the integrity contract: each entry's checksum is re-derived before its
// diff touches the state vector, a mismatch ends the replay there — the run
// finishes live, byte-identical to a plain run, and the damage is counted,
// never replayed — and the chain is dropped, so the next run records it
// afresh. The checksum covers every field replay consumes: one flipped word
// in any of them is a miss.
func TestEpochMemoCorruptEntryDetected(t *testing.T) {
	t.Run("every-entry", testCorruptEveryEntry)
	t.Run("every-field", testCorruptEveryField)
}

func testCorruptEveryEntry(t *testing.T) {
	plain, _ := runMixed(t, nil)
	want := machineState(plain)

	cache := epochmemo.New(0)
	runMixed(t, cache) // first sight leaves the mark
	runMixed(t, cache) // the recording pass stores the chain

	// Flip one bit in every entry's recorded machine diff.
	ch := storedChain(t, cache)
	for i := range ch.entries {
		if len(ch.entries[i].diffVal) == 0 {
			t.Fatal("entry has no diff to tamper with")
		}
		ch.entries[i].diffVal[0] ^= 1
	}

	// The first entry fails at the first cut: nothing is replayed, so there
	// is nothing to write back either.
	tampered, _ := runMixed(t, cache)
	diffStates(t, "run over tampered chain vs plain", want, machineState(tampered))
	if got, want := memoPerfOf(tampered), (memoPerf{misses: 1, corrupt: 1, flattens: 1}); got != want {
		t.Fatalf("run over tampered chain perf = %+v, want %+v (damage counted, never replayed)", got, want)
	}
	if s := cache.Stats(); s.Entries != 1 || s.Cost != epochmemo.SeenCost {
		t.Fatalf("cache stats %+v, want the chain dropped back to the identity's mark", s)
	}

	// The next run records the whole chain again, and the one after replays.
	for _, pass := range []struct {
		name string
		perf memoPerf
	}{{"re-recording", mixedRecording}, {"replaying", mixedReplaying}} {
		j, _ := runMixed(t, cache)
		diffStates(t, pass.name+" run vs plain", want, machineState(j))
		if got := memoPerfOf(j); got != pass.perf {
			t.Fatalf("%s run perf = %+v, want %+v", pass.name, got, pass.perf)
		}
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
		{"closeOp", func(ent *epochEntry) { ent.closeOp ^= 1 }},
		{"closeBytes", func(ent *epochEntry) { ent.closeBytes++ }},
		{"closeLast", func(ent *epochEntry) { ent.closeLast ^= 1 }},
		{"budget", func(ent *epochEntry) { ent.ranks[5].budget++ }},
		{"recvSeq", func(ent *epochEntry) { ent.ranks[2].recvSeq[0]++ }},
		{"rngSeq", func(ent *epochEntry) { ent.ranks[7].rngSeq[0] ^= 1 }},
		{"mailbox-bytes", func(ent *epochEntry) { ent.ranks[1].mailbox[0][0].bytes++ }},
		{"mailbox-arrival", func(ent *epochEntry) { ent.ranks[1].mailbox[0][0].arrival++ }},
		{"sum", func(ent *epochEntry) { ent.sum ^= 1 << 63 }},
	} {
		// The first of the chain's two entries fails its checksum at the
		// first cut and the run goes live; the next run records both again.
		field.flip(&storedChain(t, cache).entries[0])
		for _, pass := range []struct {
			name string
			perf memoPerf
		}{
			{"run over the flipped word", memoPerf{misses: 1, corrupt: 1, flattens: 1}},
			{"re-recording run", memoPerf{misses: 3, stores: 2, flattens: 3}},
		} {
			j := run(cache)
			diffStates(t, field.name+" flipped: "+pass.name+" vs plain", want, machineState(j))
			if got := memoPerfOf(j); got != pass.perf {
				t.Fatalf("%s flipped: %s perf = %+v, want %+v", field.name, pass.name, got, pass.perf)
			}
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
