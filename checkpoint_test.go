package bgp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bgpsim/internal/bgpctr"
)

// TestDumpFileServesStampedBytes checks the store's one-file read: for every
// node it returns exactly the dump's encoding, and each kind of damage that
// makes Restore miss makes it miss too, as do a wrong configuration and an
// out-of-range node.
func TestDumpFileServesStampedBytes(t *testing.T) {
	cfg := RunConfig{Benchmark: "mg", Class: ClassS, Ranks: 4, Mode: SMP1, Opts: Options{Level: O5, Arch440d: true}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Dumps)
	if n < 2 {
		t.Fatalf("%d dumps; the damage cases need a second node", n)
	}
	key := RunKey(0, cfg)
	persisted := func(t *testing.T) (*CheckpointStore, string) {
		t.Helper()
		dir := t.TempDir()
		store, err := OpenCheckpointStore(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Persist(key, cfg, res); err != nil {
			t.Fatal(err)
		}
		return store, filepath.Join(dir, key)
	}

	store, _ := persisted(t)
	for node, d := range res.Dumps {
		want := d.Append(nil)
		got, files := store.DumpFile(key, cfg, node)
		if !bytes.Equal(got, want) {
			t.Errorf("node %d: DumpFile returned %d bytes, not the dump's %d", node, len(got), len(want))
		}
		if files != n {
			t.Errorf("node %d: DumpFile reports %d files, want %d", node, files, n)
		}
	}
	for _, node := range []int{-1, n} {
		if got, files := store.DumpFile(key, cfg, node); got != nil || files != n {
			t.Errorf("out-of-range node %d: got %d bytes and %d files, want a miss reporting %d files", node, len(got), files, n)
		}
	}
	wrong := cfg
	wrong.Ranks = 8
	if got, files := store.DumpFile(key, wrong, 0); got != nil || files != 0 {
		t.Errorf("wrong config: got %d bytes and %d files, want a miss reporting 0 files", len(got), files)
	}
	if store.Restore(key, wrong) != nil {
		t.Error("Restore accepted a wrong config")
	}

	// Each case damages node 1's file only; node 0's stays servable.
	name1 := bgpctr.DumpFileName(res.Dumps[1].NodeID)
	for _, tc := range []struct {
		name   string
		damage func(path string, blob []byte) error
	}{
		{"flipped byte", func(path string, blob []byte) error {
			blob[len(blob)/2] ^= 0x01
			return os.WriteFile(path, blob, 0o644)
		}},
		{"truncated", func(path string, blob []byte) error {
			return os.WriteFile(path, blob[:len(blob)-1], 0o644)
		}},
		{"missing", func(path string, _ []byte) error { return os.Remove(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, runDir := persisted(t)
			path := filepath.Join(runDir, name1)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(path, blob); err != nil {
				t.Fatal(err)
			}
			if got, files := store.DumpFile(key, cfg, 1); got != nil || files != n {
				t.Errorf("damaged node 1: got %d bytes and %d files, want a miss reporting %d files", len(got), files, n)
			}
			if got, _ := store.DumpFile(key, cfg, 0); got == nil {
				t.Error("node 0's intact file missed")
			}
			if store.Restore(key, cfg) != nil {
				t.Error("Restore accepted the damaged entry")
			}
		})
	}
}

// TestCheckpointKeepsL3EvictionFree: the entry record carries the
// eviction-free fact, written only when true, so a restored result serves
// the larger L3s the live one would; a record without the field restores
// with the fact false and serves nothing.
func TestCheckpointKeepsL3EvictionFree(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Benchmark: "mg", Class: ClassS, Ranks: 4, Mode: SMP1, Opts: Options{Level: O5, Arch440d: true}}
	larger := cfg
	larger.L3Bytes = 4 << 20
	for _, l3 := range []int{64 << 10, 2 << 20} {
		cfg.L3Bytes = l3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.L3EvictionFree != (l3 == 2<<20) {
			t.Fatalf("%d KB: fact %t; the cases below need 64 KB to evict and 2 MB not to", l3>>10, res.L3EvictionFree)
		}
		key := RunKey(0, cfg)
		if err := store.Persist(key, cfg, res); err != nil {
			t.Fatal(err)
		}
		record := filepath.Join(store.dir, key, entryName)
		data, err := os.ReadFile(record)
		if err != nil {
			t.Fatal(err)
		}
		if written := bytes.Contains(data, []byte(`"l3_eviction_free"`)); written != res.L3EvictionFree {
			t.Errorf("%d KB: field written %t, fact %t", l3>>10, written, res.L3EvictionFree)
		}
		got := store.Restore(key, cfg)
		if got == nil || got.L3EvictionFree != res.L3EvictionFree || ServesLargerL3(got, larger) != res.L3EvictionFree {
			t.Errorf("%d KB: the restored result (nil: %t) does not keep the fact %t", l3>>10, got == nil, res.L3EvictionFree)
		}
		if !res.L3EvictionFree {
			continue
		}

		// The record an earlier version wrote: every field but the fact.
		var fields map[string]any
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, "l3_eviction_free")
		old, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(record, old, 0o644); err != nil {
			t.Fatal(err)
		}
		got = store.Restore(key, cfg)
		if got == nil || got.L3EvictionFree || ServesLargerL3(got, larger) {
			t.Errorf("a record without the field restored (nil: %t) a result that keeps the fact; want it false, serving nothing", got == nil)
		}
	}
}
