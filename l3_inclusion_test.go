package bgp_test

// The exactness oracle of eviction-free L3 reuse: a run whose L3 never
// displaced a valid line answers for every larger L3 its geometry refines
// (bgp.ServesLargerL3). Every pair the predicate accepts is simulated both
// ways and held to byte-identical dumps; a 64 KB L3, which evicts, is the
// negative control showing the comparison can fail.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/obs"
)

// inclusionSizes are the L3 sizes each base point runs at: 64 KB evicts,
// the rest are Figure 11's.
var inclusionSizes = []int{64 << 10, 2 << 20, 4 << 20, 6 << 20, 8 << 20}

// inclusionBases are the identities the oracle varies the L3 of: the eight
// kernels at S/4 in SMP/1 and VNM, a spec with Send/Recv and DMA
// deliveries, and an L3 prefetch engine.
func inclusionBases(t *testing.T) []bgp.RunConfig {
	t.Helper()
	best := bgp.Options{Level: bgp.O5, Arch440d: true}
	var bases []bgp.RunConfig
	for _, mode := range []bgp.OpMode{bgp.SMP1, bgp.VNM} {
		for _, name := range bgp.Benchmarks() {
			bases = append(bases, bgp.RunConfig{Benchmark: name, Class: bgp.ClassS, Ranks: 4, Mode: mode, Opts: best})
		}
	}
	spec, err := bgp.LoadWorkloadSpec(filepath.Join("internal", "workload", "testdata", "comm-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	bases = append(bases,
		bgp.RunConfig{Spec: spec, Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1, Opts: best},
		bgp.RunConfig{Benchmark: "mg", Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1, Opts: best, L3PrefetchDepth: 2})
	return bases
}

// encodedDumps renders a result's dumps as the files a run writes.
func encodedDumps(t *testing.T, res *bgp.Result) [][]byte {
	t.Helper()
	out := make([][]byte, len(res.Dumps))
	for i, d := range res.Dumps {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

func TestL3InclusionServesByteIdentical(t *testing.T) {
	bases := inclusionBases(t)
	var cfgs []bgp.RunConfig
	for _, base := range bases {
		for _, l3 := range inclusionSizes {
			cfg := base
			cfg.L3Bytes = l3
			cfgs = append(cfgs, cfg)
		}
	}
	// Two workers, each run's eviction counter held to the tag scan: the
	// fact every accepted pair below rests on.
	results, errs := make([]*bgp.Result, len(cfgs)), make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(cfgs); k = int(next.Add(1) - 1) {
				results[k], errs[k] = bgp.RunCheckingL3Evictions(cfgs[k])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	accepted, controls := 0, 0
	for b := range bases {
		row := results[b*len(inclusionSizes) : (b+1)*len(inclusionSizes)]
		dumps := make([][][]byte, len(row))
		for k, res := range row {
			dumps[k] = encodedDumps(t, res)
		}
		for i, twin := range row {
			for j, res := range row {
				name := fmt.Sprintf("%s %d KB → %d KB", twin.Label, twin.Config.L3Bytes>>10, res.Config.L3Bytes>>10)
				if !bgp.ServesLargerL3(twin, res.Config) {
					if twin.L3EvictionFree && j > i && inclusionSizes[i] != 6<<20 {
						t.Errorf("%s: an eviction-free twin refused for a refining L3", name)
					}
					continue
				}
				accepted++
				if j <= i || inclusionSizes[i] == 6<<20 && inclusionSizes[j] == 8<<20 {
					t.Errorf("%s: accepted a pair that is not a refinement", name)
				}
				if !slices.EqualFunc(dumps[i], dumps[j], bytes.Equal) {
					t.Errorf("%s: accepted, but the dumps differ", name)
				}
				if !res.L3EvictionFree {
					t.Errorf("%s: accepted, but the larger run evicted", name)
				}
			}
		}
		// The negative control: 64 KB evicts, and the next size's dumps
		// differ, so the byte comparison above is able to fail.
		if small := row[0]; !small.L3EvictionFree {
			if bgp.ServesLargerL3(small, row[1].Config) {
				t.Errorf("%s: a twin that evicted serves a larger L3", small.Label)
			}
			if !slices.EqualFunc(dumps[0], dumps[1], bytes.Equal) {
				controls++
			}
		}
		// 6 MB (1024×12 per bank) does not refine into 8 MB (2048×8), even
		// when the 6 MB run was eviction-free.
		six := *row[3]
		six.L3EvictionFree = true
		if bgp.ServesLargerL3(&six, row[4].Config) {
			t.Errorf("%s: 6 MB serves 8 MB", six.Label)
		}
	}
	if accepted == 0 || controls == 0 {
		t.Errorf("%d accepted pairs, %d evicting controls whose neighbour differs; want some of each", accepted, controls)
	}
	t.Logf("%d accepted pairs byte-identical; %d of %d bases evict at 64 KB with different dumps at 2 MB", accepted, controls, len(bases))
}

// TestServesLargerL3RefusesOtherIdentities: the predicate answers only a
// larger L3 of the same identity, never a disabled L3 and never a
// difference in any other identity field.
func TestServesLargerL3RefusesOtherIdentities(t *testing.T) {
	base := bgp.RunConfig{Benchmark: "mg", Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1,
		Opts: bgp.Options{Level: bgp.O5, Arch440d: true}, L3Bytes: 2 << 20}
	twin, err := bgp.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !twin.L3EvictionFree {
		t.Fatalf("%s at 2 MB evicted; the refusals below need an eviction-free twin", twin.Label)
	}
	larger := base
	larger.L3Bytes = 4 << 20
	if !bgp.ServesLargerL3(twin, larger) {
		t.Fatal("the eviction-free 2 MB twin does not serve its 4 MB point")
	}
	unknown := *twin
	unknown.L3EvictionFree = false
	if bgp.ServesLargerL3(&unknown, larger) || bgp.ServesLargerL3(nil, larger) {
		t.Error("a twin without the fact serves")
	}
	for name, edit := range map[string]func(*bgp.RunConfig){
		"same L3":          func(c *bgp.RunConfig) { c.L3Bytes = 2 << 20 },
		"smaller L3":       func(c *bgp.RunConfig) { c.L3Bytes = 1 << 20 },
		"L3 disabled":      func(c *bgp.RunConfig) { c.L3Bytes = -1 },
		"benchmark":        func(c *bgp.RunConfig) { c.Benchmark = "ep" },
		"class":            func(c *bgp.RunConfig) { c.Class = bgp.ClassW },
		"ranks":            func(c *bgp.RunConfig) { c.Ranks = 8 },
		"mode":             func(c *bgp.RunConfig) { c.Mode = bgp.VNM },
		"build":            func(c *bgp.RunConfig) { c.Opts.Level = bgp.O3 },
		"nodes":            func(c *bgp.RunConfig) { c.Nodes = 8 },
		"L2 prefetch":      func(c *bgp.RunConfig) { c.L2PrefetchDepth = 4 },
		"L3 prefetch":      func(c *bgp.RunConfig) { c.L3PrefetchDepth = 2 },
		"interpreter":      func(c *bgp.RunConfig) { c.Interpreter = true },
		"slice":            func(c *bgp.RunConfig) { c.SliceCycles = 5000 },
		"timeline":         func(c *bgp.RunConfig) { c.TimelineInterval = 100000 },
		"refused by Check": func(c *bgp.RunConfig) { c.Ranks = 0 },
	} {
		cfg := larger
		edit(&cfg)
		if bgp.ServesLargerL3(twin, cfg) {
			t.Errorf("%s: the 2 MB twin serves a point differing in %s", twin.Label, name)
		}
	}
	off := *twin
	off.Config.L3Bytes = -1
	if bgp.ServesLargerL3(&off, larger) {
		t.Error("a twin without an L3 serves")
	}
}

// TestL3EvictionFreeSameOnEveryPath: the fact is read from walked state
// after the job, so the interpreter, the slow path and a memo replay of one
// identity all derive the same value, for an evicting L3 and a free one.
func TestL3EvictionFreeSameOnEveryPath(t *testing.T) {
	for _, l3 := range []int{64 << 10, 2 << 20} {
		cfg := determinismCases()[0] // mg S/4 SMP/1: the memo engages
		cfg.L3Bytes = l3
		want, err := bgp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.L3EvictionFree != (l3 > 64<<10) {
			t.Errorf("%d KB: fact %t on the default path", l3>>10, want.L3EvictionFree)
		}
		for name, edit := range map[string]func(*bgp.RunConfig){
			"interpreter": func(c *bgp.RunConfig) { c.Interpreter = true },
			"no memo":     func(c *bgp.RunConfig) { c.NoEpochMemo = true },
		} {
			c := cfg
			edit(&c)
			res, err := bgp.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.L3EvictionFree != want.L3EvictionFree {
				t.Errorf("%d KB %s: fact %t, default path %t", l3>>10, name, res.L3EvictionFree, want.L3EvictionFree)
			}
		}

		// First sight, recording, replaying: the third run's state comes
		// back from the memo, and so does the fact.
		forgetEpochMemo()
		rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
		c := cfg
		c.Observer = rec
		var res *bgp.Result
		for range 3 {
			if res, err = bgp.Run(c); err != nil {
				t.Fatal(err)
			}
		}
		requireReplayed(t, rec.runs[2])
		if rec.runs[2].EpochMemoHits == 0 || res.L3EvictionFree != want.L3EvictionFree {
			t.Errorf("%d KB memo replay: %d hits, fact %t, default path %t",
				l3>>10, rec.runs[2].EpochMemoHits, res.L3EvictionFree, want.L3EvictionFree)
		}
	}
}
