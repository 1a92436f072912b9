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
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"bgpsim/internal/bgpctr"
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
}

// fileStamp validates one dump file byte-for-byte.
type fileStamp struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// RunKey is the checkpoint key of run index with configuration cfg: the
// sweep position plus 128 bits of the fingerprint's sha256, so distinct
// sweeps sharing a checkpoint directory (bgpreport runs every figure against
// one) never collide, while re-launching the same sweep maps onto the same
// entries. Content-addressed callers (the bgpd daemon) always use index 0,
// so the key depends on the configuration alone and identical submissions
// from different jobs map onto the same entry; the key is bgpd's flight key
// and the input of its job ids, so its width is what keeps two distinct
// submissions from ever answering for each other.
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

// Len returns the number of committed entries, by scanning the directory.
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
		d, err := bgpctr.ReadDump(bytes.NewReader(blob))
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
	}
	for _, d := range res.Dumps {
		name, blob, err := encodeDump(d)
		if err != nil {
			return err
		}
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

// encodeDump renders one node's dump as the file a live run writes into its
// DumpDir (bgpctr.Instrument): the same name, the same bytes.
func encodeDump(d *Dump) (name string, blob []byte, err error) {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("node%04d.bgpc", d.NodeID), buf.Bytes(), nil
}

// writeDumps gives a restored run's DumpDir the files a live run leaves
// there.
func writeDumps(dir string, dumps []*Dump) error {
	if dir == "" {
		return nil
	}
	for _, d := range dumps {
		name, blob, err := encodeDump(d)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), blob, 0o644)
		}
		if err != nil {
			return fmt.Errorf("writing restored dump: %w", err)
		}
	}
	return nil
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
