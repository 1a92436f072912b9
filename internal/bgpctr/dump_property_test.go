package bgpctr

import (
	"bytes"
	"testing"
	"testing/quick"

	"bgpsim/internal/node"
	"bgpsim/internal/upc"
)

// Property: ReadDump never panics and never mis-accepts arbitrary bytes —
// random input must produce an error, not a Dump (the odds of random bytes
// carrying the magic, a valid header and a matching CRC are negligible).
func TestReadDumpRejectsRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		d, err := ReadDump(bytes.NewReader(data))
		return d == nil && err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single byte of a valid dump is detected.
func TestReadDumpDetectsAnySingleByteFlip(t *testing.T) {
	n := node.New(0, node.DefaultParams(), nil, nil)
	s := Initialize(n, 0, upc.Mode2)
	s.Start(1)
	n.Cores[0].AdvanceCycles(1234)
	s.Stop(1)
	d, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	blob := d.Append(nil)

	// Exhaustive over a stride of positions (the file is a few KB).
	for pos := 0; pos < len(blob); pos += 7 {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x5a
		if d, err := ReadDump(bytes.NewReader(bad)); err == nil {
			// A flip in reserved counter space still changes the CRC,
			// so acceptance is always a bug.
			t.Fatalf("flip at byte %d accepted: %+v", pos, d)
		}
	}
}

// Property: write→read is the identity for sessions with arbitrary set
// structure.
func TestDumpRoundTripArbitrarySets(t *testing.T) {
	f := func(setIDs []uint8, work []uint16) bool {
		n := node.New(3, node.DefaultParams(), nil, nil)
		s := Initialize(n, 0, upc.Mode2)
		seen := map[int]bool{}
		for i, id := range setIDs {
			if len(seen) > 40 {
				break
			}
			set := int(id)
			if seen[set] {
				continue
			}
			seen[set] = true
			s.Start(set)
			if i < len(work) {
				n.Cores[0].AdvanceCycles(uint64(work[i]) + 1)
			}
			s.Stop(set)
		}
		fin, err := s.Finalize()
		if err != nil {
			return false
		}
		d, err := ReadDump(bytes.NewReader(fin.Append(nil)))
		if err != nil {
			return false
		}
		if d.NodeID != 3 || d.Mode != upc.Mode2 || len(d.Sets) != len(seen) {
			return false
		}
		for _, set := range d.Sets {
			if !seen[set.ID] {
				return false
			}
			if want := s.SetCounts(set.ID); want == nil || *want != set.Counts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
