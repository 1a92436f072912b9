package bgp

// Sweep checkpointing: each completed run's CRC'd dump set is persisted in
// its own directory, dir/<RunKey>/, together with one small entry record, so
// an interrupted or partially-failed sweep can be resumed — runs whose entry
// validates are restored from their dumps (the derived analysis and metrics
// are recomputed, which is exact because they are pure functions of the
// dumps), and runs with missing, mismatched or corrupt artifacts re-execute.
//
// The entry record is written last, after every dump file, and each file
// lands by write-temp + rename: the record's rename is the commit point, so a
// crash at any moment leaves a run either committed or absent, never torn.
// The directory is its own index — nothing is held in memory and nothing is
// shared between entries, so any number of stores, sweeps and processes may
// write one directory at once. File stamps (size + CRC32) are computed from
// the pristine encoded bytes *before* the bytes reach the disk write path, so
// corruption injected on (or occurring during) the write is caught by resume
// validation rather than silently trusted.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/node"
)

// entryName is the per-run commit record's file name inside dir/<RunKey>/.
const entryName = "ENTRY.json"

// entryVersion is the current entry-record schema version. It also versions
// the fingerprint rendering and the RunKey derivation below: version 3 is the
// per-entry layout keyed by a 128-bit sha256 prefix. Directories written by
// earlier versions (a whole-directory MANIFEST.json, 32-bit keys) hold no
// version-3 record, so they are ignored and their runs re-execute; the stale
// MANIFEST.json is neither read nor written.
const entryVersion = 3

// entry is the commit record of one completed run: its configuration
// fingerprint, resolved identity, and the stamps of its dump files.
type entry struct {
	Version int         `json:"version"`
	Config  string      `json:"config"`
	Label   string      `json:"label"`
	Ranks   int         `json:"ranks"`
	Nodes   int         `json:"nodes"`
	Files   []fileStamp `json:"files"`
	// L3EvictionFree is Result.L3EvictionFree, written only when true: a
	// record without it restores a result that serves no larger L3.
	L3EvictionFree bool `json:"l3_eviction_free,omitempty"`
}

// fileStamp validates one dump file byte-for-byte.
type fileStamp struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// RunKey is the key of run index with configuration cfg: the index plus 128
// bits of the fingerprint's sha256. At index 0 it is the run's identity, the
// key of every tier: checkpoint entries, bgpd's flight table and job ids, and
// a catalog walk's pass table; its width keeps two distinct configurations
// from ever answering for each other. Only the fault injector keys by sweep
// position (index i), so a fault fires on the position it was armed on.
func RunKey(index int, cfg RunConfig) string {
	sum := sha256.Sum256([]byte(fingerprint(cfg)))
	return fmt.Sprintf("run%04d-%x", index, sum[:16])
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
// The workload renders as its resolved source (ResolveWorkload): the
// registry's canonical benchmark name, or the spec's name plus its content
// hash.
//
// A new RunConfig field that changes what is simulated must be added here
// (TestExecutionKnobsExcludedFromRunKey fails until it is classified), with
// an entryVersion bump to retire the keys rendered without it.
func fingerprint(cfg RunConfig) string {
	src, id, _ := ResolveWorkload(cfg)
	return fmt.Sprintf("bench=%q spec=%s class=%d ranks=%d mode=%d opt=%d/%t nodes=%d l3=%d l2pf=%d l3pf=%d interp=%t slice=%d timeline=%d/%q",
		src.Name, id, cfg.Class, cfg.Ranks, cfg.Mode, cfg.Opts.Level, cfg.Opts.Arch440d,
		cfg.Nodes, cfg.L3Bytes, cfg.L2PrefetchDepth, cfg.L3PrefetchDepth,
		cfg.Interpreter, cfg.SliceCycles, cfg.TimelineInterval, cfg.TimelineEvents)
}

// ServesLargerL3 reports whether twin's result is also cfg's, by the
// inclusion property of LRU set-associative caches: twin's L3 never
// displaced a valid line, cfg's L3 is larger, every set of its banks
// receives a subset of the lines of one set of twin's (its set count is a
// multiple of twin's) and has at least as many ways, and the two runs are
// otherwise one identity. cfg's L3 then never displaces a line either, so
// every L3 access has the same outcome and the dumps are byte-identical
// (DESIGN.md, eviction-free L3 reuse). A twin with an unknown fact, or
// either side without an L3, answers nothing.
func ServesLargerL3(twin *Result, cfg RunConfig) bool {
	if twin == nil || !twin.L3EvictionFree {
		return false
	}
	small, large := PartitionL3Bytes(twin.Config, 1), PartitionL3Bytes(cfg, 1)
	if small <= 0 || large <= small {
		return false
	}
	ways := node.DefaultParams().L3Ways
	sSets, sWays := node.L3BankGeometry(int(small), ways)
	lSets, lWays := node.L3BankGeometry(int(large), ways)
	if lSets%sSets != 0 || lWays < sWays {
		return false
	}
	a, aok := resolved(twin.Config)
	b, bok := resolved(cfg)
	b.L3Bytes = a.L3Bytes
	return aok && bok && fingerprint(a) == fingerprint(b)
}

// resolved is cfg with the Ranks and Nodes Run resolves it to, as a
// Result's Config echo carries them; ok is false when Check refuses cfg.
func resolved(cfg RunConfig) (RunConfig, bool) {
	src, nodes, err := admit(cfg)
	if err != nil {
		return cfg, false
	}
	cfg.Ranks, cfg.Nodes = src.RanksFor(cfg.Ranks), nodes
	return cfg, true
}

// CheckpointStore is a handle on one checkpoint directory. It holds no state
// beyond the path: every entry is self-describing on disk, so handles are
// free to open, safe for concurrent use, and independent of each other —
// two stores (or two processes) persisting into one directory never lose
// each other's entries.
type CheckpointStore struct {
	dir string
	// mutate, when non-nil, transforms each dump file's bytes after the
	// stamps are computed — the fault injector's write-path corruption hook
	// (RunAll sets it on a per-attempt copy of the handle); resume
	// validation is what must catch the damage.
	mutate func(name string, blob []byte) []byte
}

// OpenCheckpointStore creates the checkpoint directory if need be and returns
// a handle on it. resume is ignored — whether valid entries are restored or
// re-executed is the caller's choice per run (SweepConfig.Resume), not a
// property of the handle.
func OpenCheckpointStore(dir string, resume bool) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bgp: creating checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Len returns the number of committed entries by reading every entry record.
func (c *CheckpointStore) Len() int {
	dirs, _ := os.ReadDir(c.dir)
	n := 0
	for _, d := range dirs {
		if _, ok := c.entry(d.Name()); ok {
			n++
		}
	}
	return n
}

// entry reads key's commit record; ok is false when the run was never
// committed or the record is of another version.
func (c *CheckpointStore) entry(key string) (e entry, ok bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, key, entryName))
	if err != nil || json.Unmarshal(data, &e) != nil {
		return e, false
	}
	return e, e.Version == entryVersion
}

// Restore rebuilds the Result checkpointed under key, or returns nil when
// the entry is absent, stamped for a different configuration, or any
// artifact is missing or corrupt — in which case the caller re-executes. A
// run that samples a timeline is never restored: only dumps are persisted,
// and its Result must carry the samples.
func (c *CheckpointStore) Restore(key string, cfg RunConfig) *Result {
	if cfg.TimelineInterval > 0 {
		return nil
	}
	e, blobs, ok := c.stamped(key, cfg, 0, true)
	if !ok {
		return nil
	}
	dumps := make([]*Dump, len(blobs))
	for i, blob := range blobs {
		d, err := bgpctr.DecodeDump(blob)
		if err != nil {
			return nil
		}
		dumps[i] = d
	}
	cfg.Ranks, cfg.Nodes = e.Ranks, e.Nodes
	res, err := newResult(cfg, e.Label, dumps)
	if err != nil {
		return nil
	}
	res.L3EvictionFree = e.L3EvictionFree
	return res
}

// DumpFile returns node's dump file from the entry checkpointed under key —
// the bytes a live run writes into its DumpDir — after Restore's checks of
// the entry and of that one file, decoding nothing. blob is nil when the
// entry is absent or stamped for a different configuration, when the file
// is missing or corrupt, and when node is out of range. files is the
// entry's file count, 0 when the record itself does not validate, so a
// caller can tell an index past the run's nodes from a lost entry.
func (c *CheckpointStore) DumpFile(key string, cfg RunConfig, node int) (blob []byte, files int) {
	e, blobs, ok := c.stamped(key, cfg, node, false)
	if ok {
		blob = blobs[0]
	}
	return blob, len(e.Files)
}

// stamped validates key's entry against cfg — the entry version, then the
// fingerprint — and reads its dump files, every one when all is set and
// else only node's, checking each file's stamped size and CRC32. It is the
// one validation Restore and DumpFile share. The returned entry is the zero
// value when the record itself does not validate; ok is false on any
// mismatch and when node is not one of the entry's files.
func (c *CheckpointStore) stamped(key string, cfg RunConfig, node int, all bool) (e entry, blobs [][]byte, ok bool) {
	e, ok = c.entry(key)
	if !ok || e.Config != fingerprint(cfg) || len(e.Files) == 0 {
		return entry{}, nil, false
	}
	files := e.Files
	if !all {
		if node < 0 || node >= len(files) {
			return e, nil, false
		}
		files = files[node : node+1]
	}
	blobs = make([][]byte, len(files))
	for i, fs := range files {
		blob, err := os.ReadFile(filepath.Join(c.dir, key, fs.Name))
		if err != nil || int64(len(blob)) != fs.Size || crc32.ChecksumIEEE(blob) != fs.CRC32 {
			return e, nil, false
		}
		blobs[i] = blob
	}
	return e, blobs, true
}

// Persist writes res's dump files under dir/key/ and then commits the run by
// writing its entry record.
func (c *CheckpointStore) Persist(key string, cfg RunConfig, res *Result) error {
	runDir := filepath.Join(c.dir, key)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	e := entry{
		Version: entryVersion,
		Config:  fingerprint(cfg),
		Label:   res.Label,
		Ranks:   res.Config.Ranks,
		Nodes:   res.Config.Nodes,

		L3EvictionFree: res.L3EvictionFree,
	}
	for _, d := range res.Dumps {
		name, blob := bgpctr.DumpFileName(d.NodeID), d.Append(nil)
		e.Files = append(e.Files, fileStamp{
			Name:  name,
			Size:  int64(len(blob)),
			CRC32: crc32.ChecksumIEEE(blob),
		})
		if c.mutate != nil {
			blob = c.mutate(name, append([]byte(nil), blob...))
		}
		if err := writeFileAtomic(filepath.Join(runDir, name), blob); err != nil {
			return err
		}
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(runDir, entryName), data)
}

// writeFileAtomic writes data via a uniquely named temporary file and
// rename, so readers and crashes see either the old contents or the new,
// never a torn write, and two writers of one name (content-identical by
// construction: the key is the content's address) cannot interleave.
func writeFileAtomic(name string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".*.tmp")
	if err != nil {
		return err
	}
	// CreateTemp makes the file private; checkpoints are as readable as the
	// dumps a run writes itself.
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), name)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
