package bgpctr

import (
	"bytes"
	"reflect"
	"testing"

	"bgpsim/internal/faults"
	"bgpsim/internal/node"
	"bgpsim/internal/upc"
)

// validDumpBlob produces a well-formed dump file through the real
// instrumentation path, for use as a fuzz seed.
func validDumpBlob(tb testing.TB) []byte {
	n := node.New(5, node.DefaultParams(), nil, nil)
	s := Initialize(n, 0, upc.Mode3)
	for _, set := range []int{0, 7, 3} {
		s.Start(set)
		n.Cores[0].AdvanceCycles(uint64(1000 * (set + 1)))
		s.Stop(set)
	}
	var buf bytes.Buffer
	if err := s.Finalize(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeDump asserts the decoder's two safety properties on arbitrary
// bytes: it never panics, and anything it accepts is *exactly* the encoding
// of the decoded dump (so encode∘decode is the identity on every valid
// input, not just ones our writer produced — and prefixes with trailing
// garbage are never accepted). The seed corpus includes the deterministic
// corruption corpus of the fault injector's byte-corruptor: truncation at
// every field boundary, a bit flip in every field, and CRC-only flips.
func FuzzDecodeDump(f *testing.F) {
	valid := validDumpBlob(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(DumpMagic))
	f.Add(valid[:len(valid)-5])                        // truncated: checksum missing
	f.Add(valid[:20])                                  // truncated: mid-header
	f.Add(append([]byte(nil), valid[4:]...))           // magic stripped
	f.Add(append(append([]byte(nil), valid...), 0x00)) // trailing garbage
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xff
	f.Add(mutated) // payload flip: CRC must catch it
	claims := append([]byte(nil), valid[:dumpHeaderBytes]...)
	claims[24], claims[25], claims[26], claims[27] = 0, 1, 0, 0
	f.Add(claims) // a header claiming 1<<16 sets over no bytes of them
	for _, m := range faults.Corpus(0xD00D, valid, FieldBoundaries(valid), 16) {
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		// The decoder accepted the stream, so re-encoding the decoded
		// dump must reproduce the input bytes exactly — the decoder
		// rejects trailing garbage, so a strict prefix never decodes.
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatalf("re-encoding accepted dump: %v", err)
		}
		enc := buf.Bytes()
		if !bytes.Equal(enc, data) {
			t.Fatalf("encode∘decode not the identity:\n in  %x\n out %x", data, enc)
		}
		// And decoding the re-encoded bytes is a fixed point.
		d2, err := ReadDump(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding re-encoded dump: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("decode(encode(d)) != d:\n d  %+v\n d2 %+v", d, d2)
		}
	})
}

// TestDecodeRejectsCorruptionCorpus runs the corruptor's deterministic
// corpus through the decoder outside the fuzzer: every mutation of a valid
// dump — bit flips in every field, truncation at every field boundary,
// CRC-only flips, and seeded random damage — must be rejected with an
// error, never accepted and never a panic.
func TestDecodeRejectsCorruptionCorpus(t *testing.T) {
	valid := validDumpBlob(t)
	boundaries := FieldBoundaries(valid)
	if len(boundaries) == 0 {
		t.Fatal("no field boundaries for a valid dump")
	}
	corpus := faults.Corpus(0xBEEF, valid, boundaries, 64)
	if len(corpus) < len(boundaries) {
		t.Fatalf("corpus has %d entries for %d boundaries", len(corpus), len(boundaries))
	}
	for i, m := range corpus {
		d, err := ReadDump(bytes.NewReader(m))
		if err == nil {
			t.Errorf("corpus entry %d (len %d) accepted: %+v", i, len(m), d)
		}
	}
}

// TestFieldBoundaries pins the boundary computation against the documented
// layout: header fields, then per-set fields, then the CRC word.
func TestFieldBoundaries(t *testing.T) {
	valid := validDumpBlob(t) // 3 sets
	offs := FieldBoundaries(valid)
	// 6 header boundaries + 5 per set × 3 sets; the last one is the CRC
	// word's first byte.
	if want := 6 + 5*3; len(offs) != want {
		t.Fatalf("got %d boundaries, want %d: %v", len(offs), want, offs)
	}
	if offs[len(offs)-1] != len(valid)-4 {
		t.Errorf("last boundary %d, want CRC start %d", offs[len(offs)-1], len(valid)-4)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("boundaries not ascending: %v", offs)
		}
	}
	if got := FieldBoundaries(nil); len(got) != 0 {
		t.Errorf("FieldBoundaries(nil) = %v", got)
	}
}

// TestEncodeMatchesSessionWriter pins that the standalone encoder and the
// session's Finalize path produce identical bytes.
func TestEncodeMatchesSessionWriter(t *testing.T) {
	blob := validDumpBlob(t)
	d, err := ReadDump(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf.Bytes()) {
		t.Fatal("Dump.Encode diverges from the Finalize writer")
	}
}
