package bgp

// Sweep checkpointing: each completed run's CRC'd dump set is persisted
// under a run directory together with an atomic manifest, so an interrupted
// or partially-failed sweep can be resumed — runs whose manifest entry
// validates are restored from their dumps (the derived analysis and metrics
// are recomputed, which is exact because they are pure functions of the
// dumps), and runs with missing, mismatched or corrupt artifacts re-execute.
//
// The manifest commits with write-temp + rename after every run, so a crash
// at any point leaves either the previous manifest or the new one, never a
// torn file; dump files are written the same way. File stamps (size +
// CRC32) are computed from the pristine encoded bytes *before* the bytes
// reach the disk write path, so corruption injected on (or occurring during)
// the write is caught by resume validation rather than silently trusted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/postproc"
)

// ManifestName is the checkpoint manifest file name inside a checkpoint
// directory.
const ManifestName = "MANIFEST.json"

// manifestVersion is the current manifest schema version. It also versions
// the fingerprint rendering below, which entry keys and Config stamps derive
// from: version 2 is the explicit identity-field list, so a version-1
// manifest loads as empty and its runs re-execute.
const manifestVersion = 2

// manifest is the on-disk index of a checkpoint directory.
type manifest struct {
	Version int                      `json:"version"`
	Entries map[string]manifestEntry `json:"entries"`
}

// manifestEntry records one completed run: its configuration fingerprint,
// resolved identity, and the stamps of its dump files.
type manifestEntry struct {
	Config string      `json:"config"`
	Label  string      `json:"label"`
	Ranks  int         `json:"ranks"`
	Nodes  int         `json:"nodes"`
	Files  []fileStamp `json:"files"`
}

// fileStamp validates one dump file byte-for-byte.
type fileStamp struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// RunKey is the checkpoint key of run index with configuration cfg: the
// sweep position plus a fingerprint hash, so distinct sweeps sharing a
// checkpoint directory (bgpreport runs every figure against one) never
// collide, while re-launching the same sweep maps onto the same entries.
// Content-addressed callers (the bgpd daemon) always use index 0, so the
// key depends on the configuration alone and identical submissions from
// different jobs map onto the same entry.
func RunKey(index int, cfg RunConfig) string {
	h := fnv.New32a()
	h.Write([]byte(fingerprint(cfg)))
	return fmt.Sprintf("run%04d-%08x", index, h.Sum32())
}

// fingerprint is the canonical identity of a run: a fixed-order rendering of
// RunConfig's identity fields, each spelled out by name. Because nothing is
// rendered by default, an execution field (the dump directory, the observer,
// the cache handle, the accelerator opt-outs) cannot reach a key by being
// forgotten, a pointer or interface field cannot leak an address into one,
// and adding or removing an execution field leaves every key where it was —
// so a checkpoint written at any execution setting restores at any other.
// Enumerations render as their numeric values, so a renamed String method
// does not move keys either.
//
// A workload spec is rendered as its own canonical sha256 fingerprint: the
// content hash makes runs of distinct specs provably distinct and runs of
// equal specs equal, regardless of which decoded copy the caller holds.
//
// A new RunConfig field that changes what is simulated must be added here
// (TestExecutionKnobsExcludedFromRunKey fails until it is classified), with
// a manifestVersion bump to retire the keys rendered without it.
func fingerprint(cfg RunConfig) string {
	spec := ""
	if cfg.Spec != nil {
		spec = cfg.Spec.Fingerprint()
	}
	return fmt.Sprintf("bench=%q spec=%s class=%d ranks=%d mode=%d opt=%d/%t nodes=%d l3=%d l2pf=%d l3pf=%d interp=%t slice=%d timeline=%d/%q",
		cfg.Benchmark, spec, cfg.Class, cfg.Ranks, cfg.Mode, cfg.Opts.Level, cfg.Opts.Arch440d,
		cfg.Nodes, cfg.L3Bytes, cfg.L2PrefetchDepth, cfg.L3PrefetchDepth,
		cfg.Interpreter, cfg.SliceCycles, cfg.TimelineInterval, cfg.TimelineEvents)
}

// CheckpointStore manages one checkpoint directory. A store is safe for
// concurrent use, and — because the manifest lives in the store's memory
// between commits — one open store must be shared by everything writing to
// a directory at the same time: two independently opened stores on one
// directory would each commit their own manifest view and lose the other's
// entries. RunAll sweeps sharing a directory concurrently therefore pass
// the same store via SweepConfig.Checkpoint (the bgpd daemon runs this way
// for its whole lifetime); sequential sweeps may keep using CheckpointDir,
// which opens a store per call.
type CheckpointStore struct {
	dir string

	mu sync.Mutex
	m  manifest
}

// OpenCheckpointStore creates (or, when resume is set, loads) the
// checkpoint store at dir. A missing or unreadable manifest loads as empty
// — every run simply re-executes.
func OpenCheckpointStore(dir string, resume bool) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bgp: creating checkpoint dir: %w", err)
	}
	c := &CheckpointStore{dir: dir, m: manifest{Version: manifestVersion, Entries: map[string]manifestEntry{}}}
	if !resume {
		return c, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return c, nil
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil || m.Version != manifestVersion || m.Entries == nil {
		return c, nil
	}
	c.m = m
	return c, nil
}

// Dir returns the store's directory.
func (c *CheckpointStore) Dir() string { return c.dir }

// Len returns the number of manifest entries currently indexed.
func (c *CheckpointStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m.Entries)
}

// Restore rebuilds the Result checkpointed under key, or returns nil when
// the entry is absent, stamped for a different configuration, or any
// artifact is missing or corrupt — in which case the caller re-executes.
func (c *CheckpointStore) Restore(key string, cfg RunConfig) *Result {
	return c.restore(key, cfg)
}

// Persist writes res's dump files under the store and commits its manifest
// entry atomically.
func (c *CheckpointStore) Persist(key string, cfg RunConfig, res *Result) error {
	return c.persist(key, cfg, res, nil)
}

// restore rebuilds the Result of a checkpointed run, or returns nil when the
// entry is absent, stamped for a different configuration, or any artifact is
// missing or corrupt — in which case the caller re-executes the run.
func (c *CheckpointStore) restore(key string, cfg RunConfig) *Result {
	c.mu.Lock()
	e, ok := c.m.Entries[key]
	c.mu.Unlock()
	if !ok || e.Config != fingerprint(cfg) || len(e.Files) == 0 {
		return nil
	}
	dumps := make([]*Dump, 0, len(e.Files))
	for _, fs := range e.Files {
		blob, err := os.ReadFile(filepath.Join(c.dir, key, fs.Name))
		if err != nil || int64(len(blob)) != fs.Size || crc32.ChecksumIEEE(blob) != fs.CRC32 {
			return nil
		}
		d, err := bgpctr.ReadDump(bytes.NewReader(blob))
		if err != nil {
			return nil
		}
		dumps = append(dumps, d)
	}
	analysis, err := postproc.Analyze(dumps)
	if err != nil {
		return nil
	}
	metrics, err := postproc.Compute(analysis, bgpctr.WholeAppSet, e.Label)
	if err != nil {
		return nil
	}
	cfg.Ranks, cfg.Nodes = e.Ranks, e.Nodes
	return &Result{
		Config:   cfg,
		Label:    e.Label,
		Dumps:    dumps,
		Analysis: analysis,
		Metrics:  metrics,
	}
}

// persist writes the run's dump files under dir/key/ and commits its
// manifest entry atomically. mutate, when non-nil, transforms each file's
// bytes after the stamps are computed — the fault injector's write-path
// corruption hook; resume validation is what must catch the damage.
func (c *CheckpointStore) persist(key string, cfg RunConfig, res *Result, mutate func(name string, blob []byte) []byte) error {
	runDir := filepath.Join(c.dir, key)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	entry := manifestEntry{
		Config: fingerprint(cfg),
		Label:  res.Label,
		Ranks:  res.Config.Ranks,
		Nodes:  res.Config.Nodes,
	}
	for _, d := range res.Dumps {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			return err
		}
		blob := buf.Bytes()
		name := fmt.Sprintf("node%04d.bgpc", d.NodeID)
		entry.Files = append(entry.Files, fileStamp{
			Name:  name,
			Size:  int64(len(blob)),
			CRC32: crc32.ChecksumIEEE(blob),
		})
		if mutate != nil {
			blob = mutate(name, append([]byte(nil), blob...))
		}
		if err := writeFileAtomic(filepath.Join(runDir, name), blob); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Entries[key] = entry
	data, err := json.MarshalIndent(&c.m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(c.dir, ManifestName), data)
}

// writeFileAtomic writes data via a temporary file and rename, so readers
// and crashes see either the old contents or the new, never a torn write.
func writeFileAtomic(name string, data []byte) error {
	tmp := name + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, name)
}
