package bgp_test

// What the epoch memo can and cannot share, pinned at the public API. A
// replay chain is stored under the run's full identity (memoConfigKey renders
// the run fingerprint), so it is only ever read by a rerun of the identity
// that recorded it: two points of a sweep never exchange epochs, however much
// of their execution coincides. Admission, cost and benefit are therefore per
// identity — the first run does no memo work at all, the second records, the
// third replays with one whole-machine read and one write-back — and the
// execution knobs, which the identity leaves out, share chains.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/experiments"
	"bgpsim/internal/obs"
)

// forgetEpochMemo empties the process-wide memo, so a test can count first
// runs whatever ran before it.
func forgetEpochMemo() {
	c := epochmemo.Default()
	for _, k := range c.Keys() {
		c.Delete(k)
	}
}

func TestEpochMemoKeysEmbedRunIdentity(t *testing.T) {
	forgetEpochMemo()
	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
	run := func(cfg bgp.RunConfig) obs.RunStats {
		t.Helper()
		cfg.Observer = rec
		if _, err := bgp.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return rec.runs[len(rec.runs)-1]
	}

	// Two points differing in the optimisation level only.
	a := bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM, Opts: bgp.Options{Level: bgp.O3}}
	b := a
	b.Opts.Level = bgp.O4

	run(b)
	if st := run(b); st.EpochMemoStores == 0 {
		t.Fatalf("second run of B recorded nothing: %+v", st)
	}
	if st := run(a); st.EpochMemoHits != 0 || st.EpochMemoFirstSights == 0 || st.EpochMemoFlattens != 0 {
		t.Errorf("first run of A after two runs of B: %d hits, %d first sights, %d flattens; want a first run that touches nothing",
			st.EpochMemoHits, st.EpochMemoFirstSights, st.EpochMemoFlattens)
	}
	if st := run(b); st.EpochMemoHits == 0 || st.EpochMemoStores != 0 || st.EpochMemoMaterializations != 1 {
		t.Errorf("third run of B: %d hits, %d stores, %d materializations; want a replay with one write-back",
			st.EpochMemoHits, st.EpochMemoStores, st.EpochMemoMaterializations)
	}
	if st := run(a); st.EpochMemoHits != 0 || st.EpochMemoStores == 0 {
		t.Errorf("second run of A after B replayed: %d hits, %d stores; want a recording run — B's entries are not A's",
			st.EpochMemoHits, st.EpochMemoStores)
	}
	if testing.Short() {
		return
	}

	// The figure suite. A pass simulates each identity once and serves the
	// points figures share from that run, so duplicates never reach the
	// memo; successive passes are an identity's first, second and third
	// sight. A checkpoint directory names every run by its fingerprint hash,
	// which is how the test learns how many distinct identities a pass
	// holds.
	forgetEpochMemo()
	s := experiments.QuickScale()
	s.Observer = rec
	s.CheckpointDir = t.TempDir()
	pass := func() []obs.RunStats {
		t.Helper()
		from := len(rec.runs)
		if _, err := experiments.GoldenFigures(s); err != nil {
			t.Fatal(err)
		}
		return rec.runs[from:]
	}

	cold := pass()
	entries, err := os.ReadDir(s.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	identities := map[string]bool{}
	for _, e := range entries {
		if _, hash, ok := strings.Cut(e.Name(), "-"); ok && e.IsDir() {
			identities[hash] = true
		}
	}
	firstRuns := 0
	for _, st := range cold {
		if st.EpochMemoFirstSights == 0 {
			continue
		}
		firstRuns++
		if st.EpochMemoHits != 0 || st.EpochMemoStores != 0 || st.EpochMemoFlattens != 0 || st.EpochMemoFirstSights != st.EpochMemoMisses {
			t.Errorf("%s: a first run with %d hits, %d stores, %d flattens, %d of %d misses first sights",
				st.Label, st.EpochMemoHits, st.EpochMemoStores, st.EpochMemoFlattens, st.EpochMemoFirstSights, st.EpochMemoMisses)
		}
	}
	// At least one first run per identity, since no identity can find
	// another's mark; so equality means exactly the new ones.
	if firstRuns != len(identities) || len(identities) == len(cold) {
		t.Errorf("cold pass: %d runs, %d first runs, %d distinct identities (%s); want a first run per identity and some duplicates",
			len(cold), firstRuns, len(identities), filepath.Base(s.CheckpointDir))
	}

	// The third pass is warm for every identity: each run reads the machine
	// once to find its chain and writes it back once, at its last cut.
	pass()
	var hits, materializations uint64
	for _, st := range pass() {
		if st.Served {
			continue
		}
		requireReplayed(t, st)
		if st.EpochMemoFlattens != 1 || st.EpochMemoMaterializations != 1 {
			t.Errorf("%s: warm run made %d flattens and %d materializations over %d hits, want one of each",
				st.Label, st.EpochMemoFlattens, st.EpochMemoMaterializations, st.EpochMemoHits)
		}
		hits += st.EpochMemoHits
		materializations += st.EpochMemoMaterializations
	}
	t.Logf("cold pass: %d runs over %d identities; warm pass: %d hits, %d materializations",
		len(cold), len(identities), hits, materializations)
}

// TestEpochMemoKnobsShareChains pins the other side of the identity split:
// the chain key is the run identity, which leaves the execution knobs out,
// so a chain recorded with fast-forward off is replayed by a run with it on,
// and the reverse — every leg byte-identical to the slow path, and the
// replaying leg hitting every epoch the recording leg closed.
func TestEpochMemoKnobsShareChains(t *testing.T) {
	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
	for _, cfg := range []bgp.RunConfig{determinismCases()[0], determinismCases()[3]} { // mg S/4 SMP/1, ep S/8 VNM: fast-forward engages in both
		root := t.TempDir()
		want, _ := ffRun(t, cfg, true, true, filepath.Join(root, "slow"), nil)
		for _, recordNoFF := range []bool{true, false} {
			forgetEpochMemo()
			name := fmt.Sprintf("%s %v, recorded with NoFastForward=%t", cfg.Benchmark, cfg.Mode, recordNoFF)
			var legs [3]obs.RunStats // first sight, recording, replaying
			for i := range legs {
				noFF := recordNoFF != (i == 2) // the replaying leg flips the knob
				dumps, _ := ffRun(t, cfg, noFF, false, filepath.Join(root, fmt.Sprintf("%t-%d", recordNoFF, i)), rec)
				for file, blob := range want {
					if !bytes.Equal(blob, dumps[file]) {
						t.Errorf("%s: dump %s of leg %d differs from the slow path", name, file, i+1)
					}
				}
				legs[i] = rec.runs[len(rec.runs)-1]
			}
			recording, replaying := legs[1], legs[2]
			if recording.EpochMemoStores == 0 || (recording.FFDispatches == 0) != recordNoFF {
				t.Errorf("%s: recording leg stored %d epochs with %d fast-forward dispatches",
					name, recording.EpochMemoStores, recording.FFDispatches)
			}
			requireReplayed(t, replaying)
			if replaying.EpochMemoHits != recording.EpochMemoStores {
				t.Errorf("%s: replaying leg hit %d epochs of the %d recorded under the other setting",
					name, replaying.EpochMemoHits, recording.EpochMemoStores)
			}
		}
	}
}
