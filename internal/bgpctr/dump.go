package bgpctr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"bgpsim/internal/upc"
)

// The binary dump format, one file per node (Dump.Append, WriteDumps):
//
//	magic   "BGPC"          4 bytes
//	version u32             currently 1
//	nodeID  u32
//	mode    u32             UPC counter mode of this node
//	clockHz u64
//	numSets u32
//	per set:
//	    id         u32
//	    pairs      u64     start/stop pairs accumulated
//	    firstCycle u64     Time Base at first Start
//	    lastCycle  u64     Time Base at last Stop
//	    counts     256×u64
//	crc32   u32             IEEE, over everything before it
//
// All integers are big-endian.

// DumpMagic identifies a counter dump file.
const DumpMagic = "BGPC"

// DumpVersion is the current format version.
const DumpVersion = 1

// maxDumpSets bounds a dump's set count; DecodeDump rejects a header that
// claims more as corrupt, and Finalize refuses to build such a dump.
const maxDumpSets = 1 << 16

// Fixed sizes of the binary layout above, used to compute field boundaries.
const (
	dumpHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4             // magic..numSets
	dumpSetBytes    = 4 + 8 + 8 + 8 + 8*upc.NumCounters // id..counts
	dumpCRCBytes    = 4
)

// FieldBoundaries returns the byte offsets of every field boundary inside an
// encoded dump blob, in ascending order: each offset is the first byte of a
// header field, a per-set field, or the trailing CRC word, so truncating the
// blob at any returned offset cuts the file exactly at a field edge. Offsets
// are strictly inside the blob (0 and len(blob) are excluded). The fault
// injector's byte corruptor uses this to land truncations on structurally
// interesting positions.
func FieldBoundaries(blob []byte) []int {
	var offs []int
	for _, o := range []int{4, 8, 12, 16, 24, dumpHeaderBytes} {
		if o < len(blob) {
			offs = append(offs, o)
		}
	}
	if len(blob) < dumpHeaderBytes+dumpCRCBytes {
		return offs
	}
	numSets := (len(blob) - dumpHeaderBytes - dumpCRCBytes) / dumpSetBytes
	off := dumpHeaderBytes
	for s := 0; s < numSets; s++ {
		for _, sz := range []int{4, 8, 8, 8, 8 * upc.NumCounters} {
			off += sz
			if off < len(blob) {
				offs = append(offs, off)
			}
		}
	}
	return offs
}

// Dump is a decoded per-node counter file.
type Dump struct {
	// NodeID is the node that wrote the dump.
	NodeID int
	// Mode is the UPC counter mode the node monitored.
	Mode upc.Mode
	// ClockHz is the core clock, for cycle→time conversion.
	ClockHz uint64
	// Sets are the instrumented regions in first-start order.
	Sets []DumpSet
}

// DumpSet is one instrumented region's accumulated counters.
type DumpSet struct {
	// ID is the set number passed to Start/Stop.
	ID int
	// Pairs is the number of Start/Stop pairs accumulated.
	Pairs uint64
	// FirstCycle and LastCycle bracket the region in Time Base cycles.
	FirstCycle, LastCycle uint64
	// Counts holds the 256 counter deltas.
	Counts [upc.NumCounters]uint64
}

// Encode writes the dump in the binary file format, checksummed; it is the
// exact inverse of ReadDump.
func (d *Dump) Encode(w io.Writer) error {
	_, err := w.Write(d.Append(nil))
	return err
}

// Append appends the dump's file encoding to b and returns the extended
// slice; it is the exact inverse of DecodeDump.
func (d *Dump) Append(b []byte) []byte {
	b = slices.Grow(b, dumpHeaderBytes+len(d.Sets)*dumpSetBytes+dumpCRCBytes)
	start := len(b)
	be := binary.BigEndian
	b = append(b, DumpMagic...)
	b = be.AppendUint32(b, DumpVersion)
	b = be.AppendUint32(b, uint32(d.NodeID))
	b = be.AppendUint32(b, uint32(d.Mode))
	b = be.AppendUint64(b, d.ClockHz)
	b = be.AppendUint32(b, uint32(len(d.Sets)))
	for i := range d.Sets {
		set := &d.Sets[i]
		b = be.AppendUint32(b, uint32(set.ID))
		b = be.AppendUint64(b, set.Pairs)
		b = be.AppendUint64(b, set.FirstCycle)
		b = be.AppendUint64(b, set.LastCycle)
		for _, v := range &set.Counts {
			b = be.AppendUint64(b, v)
		}
	}
	return be.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// ReadDump decodes and validates the one node dump r holds to its end (see
// DecodeDump). A reader that knows its length (bytes.Reader,
// strings.Reader) is read into one buffer of that size.
func ReadDump(r io.Reader) (*Dump, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("bgpctr: reading dump: %w", err)
	}
	return DecodeDump(buf.Bytes())
}

// dumpCursor walks an encoded dump field by field. next fails as a stream
// read of the field would: io.EOF when no byte of it is left and
// io.ErrUnexpectedEOF when only part of it is.
type dumpCursor struct {
	b   []byte
	off int
}

func (c *dumpCursor) next(n int) ([]byte, error) {
	switch left := len(c.b) - c.off; {
	case left == 0:
		return nil, io.EOF
	case left < n:
		c.off = len(c.b)
		return nil, io.ErrUnexpectedEOF
	}
	f := c.b[c.off : c.off+n]
	c.off += n
	return f, nil
}

// field reads the next big-endian field of n = 4 or 8 bytes.
func (c *dumpCursor) field(n int) (uint64, error) {
	f, err := c.next(n)
	if err != nil {
		return 0, err
	}
	if n == 4 {
		return uint64(binary.BigEndian.Uint32(f)), nil
	}
	return binary.BigEndian.Uint64(f), nil
}

// DecodeDump decodes and validates one node dump. The blob must hold
// exactly one dump: duplicate set ids, a checksum mismatch, and trailing
// bytes after the CRC word are all rejected as corruption. What it
// allocates is bounded by len(blob), whatever set count the header claims.
func DecodeDump(blob []byte) (*Dump, error) {
	c := &dumpCursor{b: blob}
	m, err := c.next(len(DumpMagic))
	if err != nil {
		return nil, fmt.Errorf("bgpctr: reading magic: %w", err)
	}
	if string(m) != DumpMagic {
		return nil, fmt.Errorf("bgpctr: bad magic %q", [4]byte(m))
	}
	var hdr [5]uint64
	for k, n := range [...]int{4, 4, 4, 8, 4} {
		if hdr[k], err = c.field(n); err != nil {
			return nil, fmt.Errorf("bgpctr: truncated header: %w", err)
		}
	}
	version, nodeID, mode, clockHz, numSets := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]
	if version != DumpVersion {
		return nil, fmt.Errorf("bgpctr: unsupported dump version %d", version)
	}
	if mode >= upc.NumModes {
		return nil, fmt.Errorf("bgpctr: corrupt mode %d", mode)
	}
	if numSets > maxDumpSets {
		return nil, fmt.Errorf("bgpctr: implausible set count %d", numSets)
	}
	// A set is stored only once the blob has shown all of it, so only the
	// sets present are allocated, whatever count the header claims.
	present := min(int(numSets), (len(blob)-c.off)/dumpSetBytes)
	d := &Dump{
		NodeID:  int(nodeID),
		Mode:    upc.Mode(mode),
		ClockHz: clockHz,
		Sets:    make([]DumpSet, 0, present),
	}
	seen := make(map[uint32]bool, present)
	for i := 0; i < int(numSets); i++ {
		var f [4]uint64
		for k, n := range [...]int{4, 8, 8, 8} {
			if f[k], err = c.field(n); err != nil {
				return nil, fmt.Errorf("bgpctr: truncated set %d: %w", i, err)
			}
		}
		id := uint32(f[0])
		if seen[id] {
			return nil, fmt.Errorf("bgpctr: duplicate set id %d", id)
		}
		seen[id] = true
		counts, err := c.next(8 * upc.NumCounters)
		if err != nil {
			return nil, fmt.Errorf("bgpctr: truncated counters of set %d: %w", i, err)
		}
		d.Sets = d.Sets[:i+1] // within capacity: set i is present
		set := &d.Sets[i]
		set.ID, set.Pairs, set.FirstCycle, set.LastCycle = int(id), f[1], f[2], f[3]
		for k := range set.Counts {
			set.Counts[k] = binary.BigEndian.Uint64(counts[8*k:])
		}
	}
	want := crc32.ChecksumIEEE(blob[:c.off])
	got, err := c.field(dumpCRCBytes)
	if err != nil {
		return nil, fmt.Errorf("bgpctr: missing checksum: %w", err)
	}
	if got != uint64(want) {
		return nil, fmt.Errorf("bgpctr: checksum mismatch: file %08x, computed %08x", got, want)
	}
	if c.off != len(blob) {
		return nil, fmt.Errorf("bgpctr: trailing garbage after checksum")
	}
	return d, nil
}
