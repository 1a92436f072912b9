package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords is a realistic little log: a submission, its running
// transition, a lease record of the kind older daemons wrote (an unknown
// kind, which must still round-trip), and a terminal state carrying its run
// counts; then a second job whose failed record carries none, as records
// written before the counts existed do.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindSubmit, Job: "job-aaaa", Tenant: "alice",
			Spec:        json.RawMessage(`{"tenant":"alice","runs":[{"benchmark":"ep","class":"S","ranks":4,"mode":"vnm"}]}`),
			CreatedUnix: 1754600000},
		{Kind: KindState, Job: "job-aaaa", State: "running"},
		{Kind: "lease", Job: "job-aaaa"},
		{Kind: KindState, Job: "job-aaaa", State: "done", Completed: 1, CacheHits: 1},
		{Kind: KindSubmit, Job: "job-bbbb", Tenant: "bob",
			Spec:        json.RawMessage(`{"runs":[{"benchmark":"mg","class":"S","ranks":4,"mode":"smp1"}]}`),
			CreatedUnix: 1754600001},
		{Kind: KindState, Job: "job-bbbb", State: "failed", Error: "run 0: boom", Recoveries: 2},
	}
}

// encodeAll frames records into one byte slice.
func encodeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := Encode(&buf, rec); err != nil {
			t.Fatalf("encoding %+v: %v", rec, err)
		}
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "JOURNAL.wal")
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Truncated() != 0 {
		t.Errorf("clean log reports %d truncated bytes", j2.Truncated())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	want := sampleRecords()
	full := encodeAll(t, want)
	// Cut the log mid-way through the last record's frame: the torn tail
	// must be dropped, the prefix replayed, and the journal appendable.
	path := filepath.Join(t.TempDir(), "JOURNAL.wal")
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("torn log replayed %d records, want %d", len(got), len(want)-1)
	}
	if j.Truncated() == 0 {
		t.Error("torn tail not reported")
	}
	if err := j.Append(want[len(want)-1]); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	j.Close()
	_, again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("truncate-then-append replay mismatch:\n got %+v\nwant %+v", again, want)
	}
}

func TestJournalBitFlipEndsReplayAtCorruption(t *testing.T) {
	want := sampleRecords()
	full := encodeAll(t, want)
	// Flip one payload byte of the second record: replay must keep the
	// first record and refuse everything from the damage on — a CRC
	// mismatch can never surface as a differently-valued record.
	firstLen := len(encodeAll(t, want[:1]))
	flipped := append([]byte(nil), full...)
	flipped[firstLen+headerBytes+2] ^= 0x40
	recs, valid := DecodeBytes(flipped)
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], want[0]) {
		t.Fatalf("bit-flipped log replayed %d records", len(recs))
	}
	if valid != int64(firstLen) {
		t.Fatalf("valid offset %d, want %d", valid, firstLen)
	}
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "JOURNAL.wal")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	live := []Record{
		sampleRecords()[0],
		{Kind: KindState, Job: "job-aaaa", State: "done"},
	}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	// Appends keep working on the compacted file.
	extra := Record{Kind: KindSubmit, Job: "job-cccc", Tenant: "carol", CreatedUnix: 7}
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, append(append([]Record(nil), live...), extra)) {
		t.Fatalf("compacted replay mismatch: %+v", got)
	}
}

// TestJournalCountFields pins the terminal counts' wire names, and that a
// state record written before they existed decodes with both counts zero.
func TestJournalCountFields(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Record{Kind: KindState, Job: "job-aaaa", State: "done", Completed: 3, CacheHits: 2}); err != nil {
		t.Fatal(err)
	}
	if payload := buf.String()[headerBytes:]; !strings.Contains(payload, `"completed":3,"cache_hits":2`) {
		t.Errorf("terminal record payload %s lacks the count fields", payload)
	}

	old := []byte(`{"kind":"state","job":"job-aaaa","state":"done","recoveries":1}`)
	var frame [headerBytes]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(old)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(old))
	recs, valid := DecodeBytes(append(frame[:], old...))
	want := Record{Kind: KindState, Job: "job-aaaa", State: "done", Recoveries: 1}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], want) || valid != int64(headerBytes+len(old)) {
		t.Fatalf("countless record decoded as %+v (valid %d), want %+v", recs, valid, want)
	}
}

func TestJournalOversizedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	big := Record{Kind: KindSubmit, Job: "job-big", Spec: json.RawMessage(
		`"` + string(bytes.Repeat([]byte{'x'}, MaxRecordBytes)) + `"`)}
	if err := Encode(&buf, big); err == nil {
		t.Fatal("oversized record encoded")
	}
}

// TestJournalCorruptionCorpus replays every committed corruption sample:
// truncations, bit flips, garbage prefixes and length-bomb headers. Each
// must open without error (the torn part truncated away) and never panic.
func TestJournalCorruptionCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corrupt", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corruption corpus files under testdata/corrupt")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		recs, valid := DecodeBytes(data)
		if valid > int64(len(data)) {
			t.Errorf("%s: valid offset %d beyond %d bytes", file, valid, len(data))
		}
		// A damaged log must still open, truncate, and accept appends.
		path := filepath.Join(t.TempDir(), "JOURNAL.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, opened, err := Open(path)
		if err != nil {
			t.Errorf("%s: open: %v", file, err)
			continue
		}
		if len(opened) != len(recs) {
			t.Errorf("%s: open replayed %d records, DecodeBytes %d", file, len(opened), len(recs))
		}
		if err := j.Append(Record{Kind: KindSubmit, Job: "job-after"}); err != nil {
			t.Errorf("%s: append after corrupt open: %v", file, err)
		}
		j.Close()
		_, again, err := Open(path)
		if err != nil {
			t.Errorf("%s: reopen: %v", file, err)
			continue
		}
		if len(again) != len(recs)+1 {
			t.Errorf("%s: reopen replayed %d records, want %d", file, len(again), len(recs)+1)
		}
	}
}

// FuzzJournalReplay throws arbitrary bytes at the replay path: it must
// never panic, must report a valid prefix within the input, and the records
// it accepts must re-encode to exactly that prefix (every accepted record
// passed its CRC). Seeded with valid logs, truncations and bit flips plus
// the committed corruption corpus.
func FuzzJournalReplay(f *testing.F) {
	full := func() []byte {
		var buf bytes.Buffer
		for _, rec := range sampleRecords() {
			Encode(&buf, rec)
		}
		return buf.Bytes()
	}()
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:headerBytes-1])
	f.Add([]byte{})
	flip := append([]byte(nil), full...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	// Length bomb: a header promising 3 GiB of payload.
	f.Add([]byte{0xff, 0xff, 0xff, 0xbf, 0, 0, 0, 0, 'x'})
	if files, err := filepath.Glob(filepath.Join("testdata", "corrupt", "*.wal")); err == nil {
		for _, file := range files {
			if data, err := os.ReadFile(file); err == nil {
				f.Add(data)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := DecodeBytes(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside 0..%d", valid, len(data))
		}
		var buf bytes.Buffer
		for _, rec := range recs {
			if err := Encode(&buf, rec); err != nil {
				t.Fatalf("re-encoding accepted record: %v", err)
			}
		}
		again, _ := DecodeBytes(buf.Bytes())
		if len(again) != len(recs) {
			t.Fatalf("re-encoded prefix replays %d records, want %d", len(again), len(recs))
		}
	})
}
