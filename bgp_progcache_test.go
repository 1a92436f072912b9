package bgp_test

// Determinism harness of the compile-and-classification cache. The cache is
// a pure host-side optimization: counter dumps and derived metrics must be
// byte-identical whether a run compiles fresh (NoProgCache), populates a
// cold cache, or is served entirely from a hot one — and a cache shared by
// a concurrent sweep must not let runs perturb each other.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	bgp "bgpsim"
)

// runWithCache executes cfg with the given cache setting into its own dump
// directory and returns the result plus the raw dump bytes.
func runWithCache(t *testing.T, cfg bgp.RunConfig, root, tag string, cache *bgp.ProgCache, off bool) (*bgp.Result, map[string][]byte) {
	t.Helper()
	cfg.ProgCache = cache
	cfg.NoProgCache = off
	cfg.DumpDir = filepath.Join(root, tag)
	if err := os.MkdirAll(cfg.DumpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := bgp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, readDumpBytes(t, cfg.DumpDir)
}

// TestProgCacheDeterminism pins the exactness contract across every cache
// temperature: uncached, cold (populating) and hot (fully served) runs of
// one configuration write byte-identical dumps and identical metrics.
func TestProgCacheDeterminism(t *testing.T) {
	for _, cfg := range determinismCases() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%v", cfg.Benchmark, cfg.Mode), func(t *testing.T) {
			root := t.TempDir()
			cache := bgp.NewProgCache(8)

			uncached, want := runWithCache(t, cfg, root, "off", nil, true)
			cold, coldDumps := runWithCache(t, cfg, root, "cold", cache, false)
			if s := cache.Stats(); s.Misses == 0 {
				t.Fatal("cold run compiled nothing through the cache")
			}
			hot, hotDumps := runWithCache(t, cfg, root, "hot", cache, false)
			if s := cache.Stats(); s.Hits == 0 {
				t.Fatal("hot run hit nothing; the cache key is unstable across runs")
			}

			for name, blob := range want {
				if !bytes.Equal(blob, coldDumps[name]) {
					t.Errorf("cold-cache dump %s differs from uncached run", name)
				}
				if !bytes.Equal(blob, hotDumps[name]) {
					t.Errorf("hot-cache dump %s differs from uncached run", name)
				}
			}
			if !reflect.DeepEqual(cold.Metrics, uncached.Metrics) || !reflect.DeepEqual(hot.Metrics, uncached.Metrics) {
				t.Error("metrics differ across cache temperatures")
			}
		})
	}
}

// TestProgCacheSharedAcrossSweep runs the same configuration many times
// concurrently through one shared cache: one compilation, many hits, and
// every run's metrics identical to a fresh uncached run's.
func TestProgCacheSharedAcrossSweep(t *testing.T) {
	base := determinismCases()[0]
	root := t.TempDir()
	golden, _ := runWithCache(t, base, root, "golden", nil, true)

	cache := bgp.NewProgCache(8)
	cfgs := make([]bgp.RunConfig, 6)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].ProgCache = cache
	}
	results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: len(cfgs)})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res.Metrics, golden.Metrics) {
			t.Errorf("run %d through the shared cache diverges from the uncached golden", i)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 {
		t.Errorf("shared sweep compiled %d times, want 1 (concurrent misses must deduplicate)", s.Misses)
	}
	if s.Hits != uint64(len(cfgs)-1) {
		t.Errorf("shared sweep hit %d times, want %d", s.Hits, len(cfgs)-1)
	}
}
