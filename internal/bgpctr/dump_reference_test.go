package bgpctr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bgpsim/internal/upc"
)

// The reflection codec the byte-slice one replaced, kept as its oracle:
// binary.Write/binary.Read field by field through CRC-updating streams.

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

func referenceEncode(d *Dump, w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	write := func(v any) error { return binary.Write(cw, binary.BigEndian, v) }

	if _, err := cw.Write([]byte(DumpMagic)); err != nil {
		return err
	}
	for _, v := range []any{
		uint32(DumpVersion),
		uint32(d.NodeID),
		uint32(d.Mode),
		d.ClockHz,
		uint32(len(d.Sets)),
	} {
		if err := write(v); err != nil {
			return err
		}
	}
	for i := range d.Sets {
		set := &d.Sets[i]
		for _, v := range []any{
			uint32(set.ID), set.Pairs, set.FirstCycle, set.LastCycle,
		} {
			if err := write(v); err != nil {
				return err
			}
		}
		if err := write(&set.Counts); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.BigEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

func referenceReadDump(r io.Reader) (*Dump, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	read := func(v any) error { return binary.Read(cr, binary.BigEndian, v) }

	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("bgpctr: reading magic: %w", err)
	}
	if string(magic[:]) != DumpMagic {
		return nil, fmt.Errorf("bgpctr: bad magic %q", magic)
	}
	var version, nodeID, mode, numSets uint32
	var clockHz uint64
	for _, v := range []any{&version, &nodeID, &mode, &clockHz, &numSets} {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("bgpctr: truncated header: %w", err)
		}
	}
	if version != DumpVersion {
		return nil, fmt.Errorf("bgpctr: unsupported dump version %d", version)
	}
	if mode >= upc.NumModes {
		return nil, fmt.Errorf("bgpctr: corrupt mode %d", mode)
	}
	if numSets > 1<<16 {
		return nil, fmt.Errorf("bgpctr: implausible set count %d", numSets)
	}
	d := &Dump{
		NodeID:  int(nodeID),
		Mode:    upc.Mode(mode),
		ClockHz: clockHz,
		Sets:    make([]DumpSet, numSets),
	}
	seen := make(map[uint32]bool, numSets)
	for i := range d.Sets {
		set := &d.Sets[i]
		var id uint32
		for _, v := range []any{&id, &set.Pairs, &set.FirstCycle, &set.LastCycle} {
			if err := read(v); err != nil {
				return nil, fmt.Errorf("bgpctr: truncated set %d: %w", i, err)
			}
		}
		if seen[id] {
			return nil, fmt.Errorf("bgpctr: duplicate set id %d", id)
		}
		seen[id] = true
		set.ID = int(id)
		if err := read(&set.Counts); err != nil {
			return nil, fmt.Errorf("bgpctr: truncated counters of set %d: %w", i, err)
		}
	}
	want := cr.crc
	var got uint32
	if err := binary.Read(cr.r, binary.BigEndian, &got); err != nil {
		return nil, fmt.Errorf("bgpctr: missing checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("bgpctr: checksum mismatch: file %08x, computed %08x", got, want)
	}
	var trailing [1]byte
	if _, err := io.ReadFull(cr.r, trailing[:]); err != io.EOF {
		return nil, fmt.Errorf("bgpctr: trailing garbage after checksum")
	}
	return d, nil
}

// randomDump is a dump of any mode with zero to three sets, some ids
// repeated (a duplicate is corruption), and counters ranging from zero to
// full 64-bit values.
func randomDump(rng *rand.Rand) *Dump {
	d := &Dump{
		NodeID:  rng.Intn(1 << 12),
		Mode:    upc.Mode(rng.Intn(upc.NumModes)),
		ClockHz: rng.Uint64(),
		Sets:    make([]DumpSet, rng.Intn(4)),
	}
	for i := range d.Sets {
		set := &d.Sets[i]
		set.ID = rng.Intn(6)
		set.Pairs, set.FirstCycle, set.LastCycle = rng.Uint64()>>rng.Intn(64), rng.Uint64(), rng.Uint64()
		for k := range set.Counts {
			if rng.Intn(3) > 0 {
				set.Counts[k] = rng.Uint64() >> rng.Intn(64)
			}
		}
	}
	return d
}

// decodeBoth decodes blob with both codecs and fails unless they agree: the
// same error text, or equal dumps.
func decodeBoth(t *testing.T, what string, blob []byte) *Dump {
	t.Helper()
	got, gotErr := ReadDump(bytes.NewReader(blob))
	want, wantErr := referenceReadDump(bytes.NewReader(blob))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, reference %+v", what, got, want)
	}
	return got
}

// cuts are the prefix lengths the equivalence test decodes: every length
// up to the first counter, each field boundary and its neighbours, and a
// sample of cuts inside the counters.
func cuts(blob []byte, rng *rand.Rand) []int {
	var out []int
	for cut := 0; cut <= dumpHeaderBytes+28 && cut < len(blob); cut++ {
		out = append(out, cut)
	}
	for _, b := range FieldBoundaries(blob) {
		out = append(out, b-1, b+1)
	}
	for k := 0; k < 16; k++ {
		out = append(out, rng.Intn(len(blob)))
	}
	return out
}

// TestCodecMatchesReflectionReference holds the byte-slice codec to the
// reflection one over random dumps of every mode: byte-identical
// encodings, and on every input — the encoding, prefixes cut at and around every field edge, each
// with a flipped byte, a rewritten set count and trailing bytes — the same
// decoded dump or the same error text.
func TestCodecMatchesReflectionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 0; n < 40; n++ {
		d := randomDump(rng)
		var ref bytes.Buffer
		if err := referenceEncode(d, &ref); err != nil {
			t.Fatal(err)
		}
		blob := d.Append(nil)
		if !bytes.Equal(blob, ref.Bytes()) {
			t.Fatalf("dump %d: encoding differs from the reference", n)
		}
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil || !bytes.Equal(enc.Bytes(), blob) {
			t.Fatalf("dump %d: Encode %v, or its bytes differ from Append's", n, err)
		}
		decodeBoth(t, fmt.Sprintf("dump %d", n), blob)
		for _, cut := range cuts(blob, rng) {
			decodeBoth(t, fmt.Sprintf("dump %d cut at %d", n, cut), blob[:cut])
		}
		for k := 0; k < 64; k++ {
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			decodeBoth(t, fmt.Sprintf("dump %d flip %d", n, k), bad)
		}
		// (A claim of 1<<16 sets would have the reference allocate them.)
		for _, sets := range []uint32{0, uint32(len(d.Sets)) + 1, 1<<16 + 1} {
			bad := append([]byte(nil), blob...)
			binary.BigEndian.PutUint32(bad[24:], sets)
			decodeBoth(t, fmt.Sprintf("dump %d claiming %d sets", n, sets), bad)
		}
		decodeBoth(t, fmt.Sprintf("dump %d with trailing bytes", n), append(append([]byte(nil), blob...), blob[:3]...))
	}
}

// TestReadDumpAllocationBoundedByInput: a header that claims the most sets
// the format allows, followed by nothing, is rejected as truncated after
// allocating on the order of its own 28 bytes, not the 137 MB 65 536 sets
// would take.
func TestReadDumpAllocationBoundedByInput(t *testing.T) {
	blob := (&Dump{Mode: upc.Mode2, ClockHz: 850_000_000}).Append(nil)[:dumpHeaderBytes]
	binary.BigEndian.PutUint32(blob[24:], 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadDump(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "bgpctr: truncated set 0: EOF" {
		t.Fatalf("err = %v, want a truncated set 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("decoding a 28-byte header allocated %d bytes", got)
	}
}
