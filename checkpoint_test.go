package bgp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpFileServesStampedBytes checks the store's one-file read: for every
// node it returns exactly encodeDump's bytes, and each kind of damage that
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
		_, want, err := encodeDump(d)
		if err != nil {
			t.Fatal(err)
		}
		got, files := store.DumpFile(key, cfg, node)
		if !bytes.Equal(got, want) {
			t.Errorf("node %d: DumpFile returned %d bytes, not encodeDump's %d", node, len(got), len(want))
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
	name1, _, _ := encodeDump(res.Dumps[1])
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
