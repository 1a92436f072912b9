// Package cache provides the building blocks of the Blue Gene/P node memory
// hierarchy: a generic set-associative cache with LRU or round-robin
// replacement (round-robin for the private 32 KB L1 data caches, matching
// the PPC450; LRU for the shared, size-configurable L3) and
// a stream-prefetching L2 front end (Blue Gene/P's private "prefetching L2"
// is a small buffer driven by stream-detection engines, not a conventional
// cache).
//
// All structures are single-writer by construction: the machine scheduler
// advances at most one rank at a time, so no locking is needed and results
// are deterministic.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects a victim-choice policy.
type Replacement uint8

// Replacement policies.
const (
	// ReplaceLRU evicts the least-recently-used way (the L3 policy).
	ReplaceLRU Replacement = iota
	// ReplaceRoundRobin cycles a per-set victim cursor, matching the
	// PPC450 L1 caches (and costing no bookkeeping on hits).
	ReplaceRoundRobin
)

// Cache is a set-associative cache with a configurable replacement policy.
//
// The tag store is laid out for the host, not just the model: simulated tag
// arrays are far larger than the host's caches, so an access costs roughly
// one host cache miss per distinct array it touches. All of a set's state
// therefore lives in one contiguous slab window — dirty bits, replacement
// state, a SWAR tag-byte signature, and packed 32-bit tags — padded to a
// 64-byte multiple, so a lookup lands on one host cache line (an 8-way LRU
// set is exactly 64 bytes) instead of one line per parallel array. Only the
// hit-way hint lives outside the slab: the hint probe starts every lookup,
// and keeping it in a dense uint16 array that stays resident in the host's
// cache lets the (usually cold) slab load issue immediately instead of
// waiting behind a dependent meta-word read.
//
// Per-set window layout (word offsets):
//
//	0          dirty bitmask, bit = way (write-back only)
//	1          replacement state: LRU recency list (4-bit way ids packed
//	           MRU-first) or the round-robin victim cursor
//	2..2+sigw  signature: the low byte of every way's tag, 8 ways per word
//	tagOff..   tags, two 32-bit entries per word; (line >> setBits)+1, 0 =
//	           invalid. The set index is implicit in the position, as in
//	           hardware, which is what lets a tag narrow to 32 bits: even
//	           the smallest geometry (128-byte lines, 256 sets) covers
//	           addresses up to 128 TB, and the miss path checks the bound
//	           so larger addresses fail loudly instead of aliasing.
type Cache struct {
	name      string
	lineBits  uint
	setBits   uint
	ways      int
	writeback bool
	policy    Replacement

	setWords int // slab words per set, padded to a 64-byte multiple
	sigw     int // signature words per set: (ways+7)/8
	tagOff   int // word offset of the packed tags within a set window
	slab     []uint64
	hint     []uint16 // most recent hit way per set, probed first

	// Hits, Misses and Writebacks are free-running event counters wired
	// to the UPC unit.
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// Config describes a cache geometry.
type Config struct {
	// Name labels the cache for diagnostics ("L1D.2", "L3").
	Name string
	// SizeBytes is the total capacity. Must be Sets*Ways*LineBytes.
	SizeBytes int
	// LineBytes is the line size (a power of two).
	LineBytes int
	// Ways is the associativity (at most 64 for round-robin, at most 16
	// for LRU — the recency list packs 4-bit way ids into one word).
	Ways int
	// WriteBack selects write-back dirty-line tracking; when false the
	// cache is write-through and never produces writebacks.
	WriteBack bool
	// Replacement selects the victim policy (LRU by default).
	Replacement Replacement
}

// New creates a cache. It panics on a geometry that is not a power-of-two
// set count, since such a cache cannot index by address bits.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	maxWays := 64
	if cfg.Replacement == ReplaceLRU {
		maxWays = 16
	}
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache %s: unsupported associativity %d", cfg.Name, cfg.Ways))
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by way capacity", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	sigw := (cfg.Ways + 7) / 8
	raw := 2 + sigw + (cfg.Ways+1)/2
	c := &Cache{
		name:      cfg.Name,
		lineBits:  log2(uint(cfg.LineBytes)),
		setBits:   log2(uint(sets)),
		ways:      cfg.Ways,
		writeback: cfg.WriteBack,
		policy:    cfg.Replacement,
		setWords:  (raw + 7) &^ 7,
		sigw:      sigw,
		tagOff:    2 + sigw,
	}
	c.slab = make([]uint64, sets*c.setWords)
	c.hint = make([]uint16, sets)
	c.initOrder()
	return c
}

// initOrder seeds every set's LRU recency list with way 0 least recent, so
// an empty set fills ways in ascending order — the same victim sequence the
// classic lowest-stamp-first scan produces.
func (c *Cache) initOrder() {
	if c.policy != ReplaceLRU {
		return
	}
	var ord uint64
	for p := 0; p < c.ways; p++ {
		ord |= uint64(c.ways-1-p) << (4 * uint(p))
	}
	for b := 1; b < len(c.slab); b += c.setWords {
		c.slab[b] = ord
	}
}

func log2(v uint) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int {
	return (1 << c.setBits) * c.ways * (1 << c.lineBits)
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// key splits addr into the stored tag and the set index. It must stay
// small enough to inline (it runs on every lookup), so the 32-bit range
// check lives on the miss path instead: an out-of-range address cannot
// alias a stored tag without some access first trying to fill a line
// beyond the range, which panics in Access.
func (c *Cache) key(addr uint64) (tag uint32, set uint64) {
	ln := addr >> c.lineBits
	return uint32(ln>>c.setBits + 1), ln & (1<<c.setBits - 1)
}

//go:noinline
func (c *Cache) tagOverflow(addr uint64) {
	panic(fmt.Sprintf("cache %s: address %#x beyond the 32-bit tag range", c.name, addr))
}

// tagAt reads way w's tag in the set window at slab offset b.
func (c *Cache) tagAt(b, w int) uint32 {
	return uint32(c.slab[b+c.tagOff+w>>1] >> (32 * uint(w&1)))
}

// setTag stores way w's tag and its signature byte.
func (c *Cache) setTag(b, w int, tag uint32) {
	ti := b + c.tagOff + w>>1
	sh := 32 * uint(w&1)
	c.slab[ti] = c.slab[ti]&^(0xffffffff<<sh) | uint64(tag)<<sh
	si := b + 2 + w>>3
	bs := uint(w&7) * 8
	c.slab[si] = c.slab[si]&^(0xff<<bs) | uint64(uint8(tag))<<bs
}

// promote moves way w to the most-recently-used end of the set's recency
// list. Equivalent to restamping the way with a fresh LRU clock tick: only
// relative recency ever decides victims, and both schemes order the ways
// identically.
func (c *Cache) promote(b, w int) {
	ord := c.slab[b+1]
	if int(ord&15) == w {
		return // already most recent — the common streaming-hit case
	}
	p := uint(1)
	for int(ord>>(4*p)&15) != w {
		p++
	}
	low := ord & (1<<(4*p) - 1)
	c.slab[b+1] = ord&^(1<<(4*(p+1))-1) | low<<4 | uint64(w)
}

// promoteVictim returns the set's least-recently-used way and makes it the
// most recent. The victim is by definition the last nibble of the recency
// list, so promoting it is one shift of the whole list with the victim
// or-ed in at the MRU end — what promote arrives at after searching for it.
func (c *Cache) promoteVictim(b int) int {
	ord := c.slab[b+1]
	top := 4 * uint(c.ways-1)
	w := ord >> top & 15
	c.slab[b+1] = ord&(1<<top-1)<<4 | w
	return int(w)
}

// Result reports the outcome of a cache access.
type Result struct {
	// Hit reports whether the line was present.
	Hit bool
	// Victim is the address of the evicted line when a miss displaced a
	// valid line; VictimValid is false otherwise.
	Victim      uint64
	VictimValid bool
	// VictimDirty reports whether the displaced line was dirty and must
	// be written back to the next level.
	VictimDirty bool
}

// Access looks up addr, allocating the line on a miss (write-allocate).
// When write is true and the cache is write-back, the line is marked dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	tag, set := c.key(addr)
	b := int(set) * c.setWords
	s := c.slab

	// Fast path: the hinted way is probed first — repeated hits to the
	// same line (streaming interpreters) then cost a single tag compare.
	// The hint is a pure lookup accelerator: a line lives in exactly one
	// way, so probing it first cannot change which way a hit lands in.
	if h := int(c.hint[set]); c.tagAt(b, h) == tag {
		c.Hits++
		if c.policy == ReplaceLRU {
			c.promote(b, h)
		}
		if write && c.writeback {
			s[b] |= 1 << uint(h)
		}
		return Result{Hit: true}
	}
	// Signature screen: compare the lookup's low tag byte against every
	// way's in one or two SWAR steps; only matching bytes touch the tags.
	probe := uint64(uint8(tag)) * swarLSB
	for i := 0; i < c.sigw; i++ {
		x := s[b+2+i] ^ probe
		for z := (x - swarLSB) &^ x & swarMSB; z != 0; z &= z - 1 {
			w := i*8 + bits.TrailingZeros64(z)>>3
			if w >= c.ways || c.tagAt(b, w) != tag {
				continue
			}
			c.Hits++
			c.hint[set] = uint16(w)
			if c.policy == ReplaceLRU {
				c.promote(b, w)
			}
			if write && c.writeback {
				s[b] |= 1 << uint(w)
			}
			return Result{Hit: true}
		}
	}

	// Miss: pick the victim way.
	var w int
	if c.policy == ReplaceRoundRobin {
		w = int(s[b+1])
		cur := w + 1
		if cur == c.ways {
			cur = 0
		}
		s[b+1] = uint64(cur)
	} else {
		w = c.promoteVictim(b)
	}

	if addr>>(c.lineBits+c.setBits) > 1<<32-2 {
		c.tagOverflow(addr)
	}
	c.Misses++
	var r Result
	if t := c.tagAt(b, w); t != 0 {
		r.Victim = (uint64(t-1)<<c.setBits | set) << c.lineBits
		r.VictimValid = true
		if c.writeback && s[b]&(1<<uint(w)) != 0 {
			r.VictimDirty = true
			c.Writebacks++
		}
	}
	c.setTag(b, w, tag)
	c.hint[set] = uint16(w)
	if c.writeback {
		if write {
			s[b] |= 1 << uint(w)
		} else {
			s[b] &^= 1 << uint(w)
		}
	}
	return r
}

// Resident returns the number of valid lines the cache holds: ways with a
// non-zero tag. It reads the tag store only, so it is exact on a cache whose
// state was restored by a statehash walk. It scans every set, so nothing on
// a run's path calls it; tests hold the node's L3 eviction counter to it.
func (c *Cache) Resident() int {
	n := 0
	for b := c.tagOff; b < len(c.slab); b += c.setWords {
		// Two tags a word; an odd way count leaves the last high half 0.
		for _, x := range c.slab[b : b+(c.ways+1)/2] {
			if uint32(x) != 0 {
				n++
			}
			if x>>32 != 0 {
				n++
			}
		}
	}
	return n
}

// Contains reports whether addr's line is resident, without touching
// replacement state or counters.
func (c *Cache) Contains(addr uint64) bool {
	tag, set := c.key(addr)
	b := int(set) * c.setWords
	for w := 0; w < c.ways; w++ {
		if c.tagAt(b, w) == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present (a coherence snoop hit) and
// reports whether it was resident. The dirty bit is dropped with the line:
// the writer's data supersedes it. The way keeps its place in the recency
// list, exactly as the stamp-based victim scan ignored validity.
func (c *Cache) Invalidate(addr uint64) bool {
	tag, set := c.key(addr)
	b := int(set) * c.setWords
	for w := 0; w < c.ways; w++ {
		if c.tagAt(b, w) == tag {
			c.setTag(b, w, 0)
			if c.writeback {
				c.slab[b] &^= 1 << uint(w)
			}
			return true
		}
	}
	return false
}
