// Package journal is the write-ahead job journal behind the bgpd daemon's
// crash durability. Every accepted submission is appended — and fsynced —
// before the client sees its 202 and every job state transition is appended
// as it happens, so a killed daemon can be restarted against the same
// directory and reconstruct exactly which jobs were queued, running, done or
// failed at the moment of the crash.
//
// The format is a flat sequence of CRC-stamped records:
//
//	uint32 payload length (little endian)
//	uint32 IEEE CRC32 of the payload
//	payload: one JSON-encoded Record
//
// Appends are atomic at record granularity by construction: a crash mid-write
// leaves a torn tail whose length, CRC or JSON fails validation, and Open
// truncates the file back to the last valid record instead of failing —
// durability must degrade to "lose the last in-flight append", never to "the
// daemon refuses to boot". Replay (DecodeBytes) is pure and total: arbitrary
// bytes never panic and never yield a record that did not pass its CRC
// (FuzzJournalReplay and the testdata corruption corpus pin this).
//
// The journal records *intent and state*, not results: results live in the
// CRC-stamped checkpoint store, keyed by content-addressed RunKeys, so a
// re-queued job that already simulated is a pure cache hit, and a finished
// job's terminal state record carries its run counts, so a replay registers
// it without touching the store. Compact rewrites the log to one submit
// record, plus its latest state, per job the replay kept.
//
// A log has one writer. Open takes an exclusive flock on the file and holds
// it until Close, and a second Open of the same path — from this process or
// any other — fails with ErrLocked. The kernel releases the lock when its
// holder dies, however it dies, so whoever opens the log knows that no one
// else is appending to it.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrLocked is Open's error when another open Journal holds the log. Two
// writers would each append at their own offset, overwriting each other's
// fsynced records, and one's Compact would unlink the file the other still
// appends to.
var ErrLocked = errors.New("locked by another open journal")

// Record kinds.
const (
	// KindSubmit journals one accepted job submission, with the raw spec
	// JSON so a restarted daemon can re-admit it.
	KindSubmit = "submit"
	// KindState journals one job state transition (queued on recovery,
	// running, done, failed).
	KindState = "state"
)

// MaxRecordBytes bounds one record's payload: a spec body is capped at
// 1 MiB by the HTTP layer, so anything larger in the log is corruption.
const MaxRecordBytes = 1 << 22

// headerBytes is the fixed length+CRC frame prefix.
const headerBytes = 8

// Record is one journal entry. Kind selects which fields are meaningful;
// unknown kinds and fields decode fine and are ignored on replay, so the
// format can change without invalidating old logs (the lease records and
// owner fields older daemons wrote are such).
type Record struct {
	// Kind is the record kind (KindSubmit, KindState).
	Kind string `json:"kind"`
	// Job is the content-addressed job id every record refers to.
	Job string `json:"job"`
	// Tenant and Spec carry a submit record's admission identity: Spec is
	// the raw JobSpec JSON, re-decoded on replay.
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	// CreatedUnix is the submit record's admission time.
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// State and Error carry a state record's transition.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Recoveries counts how many times the job has been re-queued after a
	// crash; the recovery circuit breaker fails the job past its budget.
	Recoveries int `json:"recoveries,omitempty"`
	// Completed and CacheHits carry a terminal state record's run counts,
	// so a replay registers the finished job from this record alone.
	// Records written before the counts existed decode with both zero.
	Completed int `json:"completed,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
}

// Encode frames one record onto w: length, CRC32, JSON payload.
func Encode(w io.Writer, rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record payload %d bytes exceeds the %d limit", len(payload), MaxRecordBytes)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// DecodeBytes replays journal bytes: it returns every leading record that
// passes its length, CRC and JSON validation, plus the byte offset of the
// first invalid frame — the valid prefix a torn or bit-flipped log truncates
// back to. It never fails and never panics; corruption simply ends the
// replay early.
func DecodeBytes(data []byte) (recs []Record, valid int64) {
	off := 0
	for {
		if off+headerBytes > len(data) {
			return recs, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || n > MaxRecordBytes || off+headerBytes+n > len(data) {
			return recs, int64(off)
		}
		payload := data[off+headerBytes : off+headerBytes+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, int64(off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, int64(off)
		}
		recs = append(recs, rec)
		off += headerBytes + n
	}
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use; every Append reaches the disk (write + fsync) before returning.
type Journal struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	truncated int64
}

// Open opens (creating if absent) and locks the journal at path, replays
// it, and returns the valid records. A torn or corrupt tail is truncated
// away — the journal stays appendable — and its length is reported by
// Truncated. A log another Journal holds open is refused with ErrLocked.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if err := lock(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	recs, valid := DecodeBytes(data)
	j := &Journal{path: path, f: f, truncated: int64(len(data)) - valid}
	if j.truncated > 0 {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recs, nil
}

// Truncated returns how many torn-tail bytes Open discarded.
func (j *Journal) Truncated() int64 { return j.truncated }

// Append writes one record and syncs it to disk. The record is durable when
// Append returns, so a submit journaled here survives any later crash.
func (j *Journal) Append(rec Record) error {
	var buf bytes.Buffer
	if err := Encode(&buf, rec); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: append to closed journal %s", j.path)
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", j.path, err)
	}
	return nil
}

// Compact atomically replaces the log with exactly the given records (the
// folded live state: one submit per job plus its terminal or recovered
// state), via write-temp + fsync + rename — a crash during compaction
// leaves either the old log or the new one, never a torn file.
func (j *Journal) Compact(live []Record) error {
	var buf bytes.Buffer
	for _, rec := range live {
		if err := Encode(&buf, rec); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: compact of closed journal %s", j.path)
	}
	tmp := j.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compacting %s: %w", j.path, err)
	}
	// The lock belongs to the file, not the name: take it on the new log
	// before the rename hands it the path, so the path is never unlocked.
	if err := lock(tf); err != nil {
		tf.Close()
		return fmt.Errorf("journal: compacting %s: %w", j.path, err)
	}
	if _, err := tf.Write(buf.Bytes()); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		tf.Close()
		return err
	}
	// The old handle now points at an unlinked inode; appends continue on
	// the renamed-in file.
	j.f.Close()
	j.f = tf
	// Until the directory is synced a power loss can undo the rename, and
	// every append made after it would go with the new file.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: compacting %s: %w", j.path, err)
	}
	return nil
}

// Close syncs and closes the journal, releasing its lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
