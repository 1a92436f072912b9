package cache

// SnoopFilter models one core's snoop filter: the small per-core structure
// Blue Gene/P places in front of each L1's coherence port so that writes by
// other cores (and by the network DMA engine) do not consume L1 cycles
// unless the line might actually be cached there. The UPC unit counts the
// filter's traffic — snoop requests seen, requests filtered, and actual L1
// invalidations — and the paper lists the snoop filters among the on-chip
// event sources (§III-A).
//
// The filter tracks the lines its core recently fetched in a small
// round-robin tag array ("stream registers" in the hardware's terms): a
// snoop whose line misses the array is provably absent from the L1 and is
// filtered; a hit forwards the probe.
type SnoopFilter struct {
	tags []uint64 // line+1, 0 = empty
	next int
	// mask is a superset presence summary of the tag array (bit = key mod
	// 64). A snoop whose bit is clear provably misses every tag, so the
	// common filtered case skips the scan; a set bit still scans for an
	// exact match. Inserts set their bit; bits of overwritten tags may
	// linger until the periodic recompute tightens the mask again (lazy
	// counts inserts toward it).
	mask uint64
	lazy int

	// Requests counts snoops presented to the filter.
	Requests uint64
	// Filtered counts snoops answered without probing the L1.
	Filtered uint64
	// Invalidates counts snoops that found and killed an L1 line.
	Invalidates uint64
}

// SnoopFilterEntries is the tag-array capacity of the production filter
// (the PPC450 snoop ports carry a handful of stream registers each).
const SnoopFilterEntries = 8

// NewSnoopFilter creates a filter with the given tag-array capacity.
func NewSnoopFilter(entries int) *SnoopFilter {
	if entries <= 0 {
		panic("cache: non-positive snoop filter capacity")
	}
	return &SnoopFilter{tags: make([]uint64, entries)}
}

// Track records that the core fetched the line at addr; subsequent snoops
// for it will be forwarded to the L1. The caller passes line-granular
// addresses (any byte within the line works).
func (f *SnoopFilter) Track(addr uint64, lineBits uint) {
	key := addr>>lineBits + 1
	if f.mask&(1<<(key&63)) != 0 {
		for _, t := range f.tags {
			if t == key {
				return
			}
		}
	}
	f.tags[f.next] = key
	f.mask |= 1 << (key & 63)
	if f.lazy++; f.lazy >= 2*len(f.tags) {
		m := uint64(0)
		for _, t := range f.tags {
			if t != 0 {
				m |= 1 << (t & 63)
			}
		}
		f.mask = m
		f.lazy = 0
	}
	if f.next++; f.next == len(f.tags) {
		f.next = 0
	}
}

// Snoop presents a remote write at addr to the filter; it returns true if
// the probe must be forwarded to the L1 (the caller invalidates there and
// reports the outcome via Invalidated).
func (f *SnoopFilter) Snoop(addr uint64, lineBits uint) bool {
	f.Requests++
	key := addr>>lineBits + 1
	if f.mask&(1<<(key&63)) != 0 {
		for _, t := range f.tags {
			if t == key {
				return true
			}
		}
	}
	f.Filtered++
	return false
}

// Invalidated records that a forwarded probe actually hit the L1.
func (f *SnoopFilter) Invalidated() { f.Invalidates++ }
