package cache

import "math/bits"

// Prefetcher models the Blue Gene/P private L2: a small prefetch buffer fed
// by sequential-stream detection engines. It is not a conventional cache —
// its job is to recognize up to NumStreams concurrent sequential line
// streams per core and stage upcoming lines close to the core so that
// streaming loads pay L2 latency instead of L3/DDR latency.
//
// The caller (the node's per-core memory port) supplies line addresses at
// L3-line granularity and performs the actual fill of prefetched lines from
// the lower levels, so DDR traffic caused by prefetching is accounted where
// it occurs.
//
// The buffer is a small FIFO array: it sits on the simulator's hottest path
// (every L1 miss probes it), so it avoids map overhead.
type Prefetcher struct {
	det    *StreamDetector
	buffer []uint64 // line+1; 0 = empty slot
	next   int      // FIFO replacement cursor
	// mask is a superset presence summary of the buffer (bit = key mod 64):
	// a clear bit proves the key is absent, so the common miss probes one
	// word instead of scanning. Fills set their bit; bits of evicted or
	// consumed keys may linger until the periodic recompute tightens the
	// mask again (lazy counts fills toward it).
	mask uint64
	lazy int

	// Hits counts accesses satisfied from the prefetch buffer.
	Hits uint64
	// Misses counts accesses that were not buffered.
	Misses uint64
	// Issued counts prefetch requests sent to the lower levels.
	Issued uint64
}

// DefaultMaxDelta is the largest line stride (in lines, either direction)
// the detection engines lock onto; wider jumps look random to them.
const DefaultMaxDelta = 4

// StreamDetector is the stride-detection half of a prefetch engine: it
// watches a line-address stream and proposes the next lines to prefetch.
// The L2 prefetcher couples one to a staging buffer; the L3 prefetch engine
// feeds its proposals straight into the shared cache.
//
// The hot screens (lastLow, nextKeyLow) are packed bytes scanned with SWAR
// arithmetic under every L1 miss; the rest of an engine's state lives in
// one 32-byte struct, so the update that follows a screen match touches a
// single host cache line instead of one per parallel array.
type StreamDetector struct {
	maxDelta int64
	depth    int
	n        int

	s     []stream // per-engine state, updated together
	valid uint64   // bit i: engine i is tracking something
	conf  uint64   // bit i: engine i's stride is locked

	// lastLow packs the low byte of every engine's last line, 8 engines
	// per word. A line can only lock engine i if their low bytes are
	// within maxDelta mod 256 — a necessary condition the tentative scan
	// checks for all engines at once with SWAR arithmetic, so the common
	// no-lock case skips the per-engine walk. Candidates are still
	// verified in engine order, so which engine locks never changes.
	lastLow []uint64

	// nextKeyLow screens the low bytes of the locked engines'
	// expectations the same way lastLow screens seeds; nconf counts
	// locked engines so the continuation scan is skipped entirely while
	// nothing is locked.
	nextKeyLow []uint64
	nconf      int
	// zeroHits has bit i set while engine i's hit count is zero. Hit counts
	// are never negative, so its first set bit is the first fewest-hits
	// engine: the steal that follows nearly every random L1 miss picks its
	// victim in one instruction, and the engine scan survives only while
	// every engine has continued a stream. Derived state: a restoring State
	// walk rebuilds it, and the window holds it as a count (engines minus
	// popcount).
	zeroHits uint64
}

// stream is one detection engine's state. The layout is padded to 32
// bytes so two engines share a host cache line and an engine update dirties
// exactly one.
type stream struct {
	last  uint64 // seed / most recent line
	delta int64  // locked stride
	// nextKey is the line a locked engine expects next, plus one (0 =
	// not locked, or its expectation can never match a line).
	nextKey uint64
	hits    int32 // continuation count (victim choice)
	_       uint32
}

// NewStreamDetector creates a detector with the given engine count (at most
// 64, the width of the state bitmasks), maximum lockable stride (in lines)
// and prefetch depth. Depth 0 disables prefetching (the detector still
// tracks, but proposes nothing).
func NewStreamDetector(numStreams int, maxDelta int64, depth int) *StreamDetector {
	if numStreams <= 0 || numStreams > 64 || maxDelta <= 0 || depth < 0 {
		panic("cache: invalid stream detector configuration")
	}
	return &StreamDetector{
		maxDelta:   maxDelta,
		depth:      depth,
		n:          numStreams,
		s:          make([]stream, numStreams),
		nextKeyLow: make([]uint64, (numStreams+7)/8),
		lastLow:    make([]uint64, (numStreams+7)/8),
		zeroHits:   engineMask(numStreams),
	}
}

// engineMask has one bit set per engine of an n-engine detector.
func engineMask(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// setLastLow records engine i's low last byte in the packed screen.
func (d *StreamDetector) setLastLow(i int, b uint8) {
	sh := uint(i&7) << 3
	d.lastLow[i>>3] = d.lastLow[i>>3]&^(0xff<<sh) | uint64(b)<<sh
}

// setNextKey records engine i's expectation and its packed low byte.
func (d *StreamDetector) setNextKey(i int, key uint64) {
	d.s[i].nextKey = key
	sh := uint(i&7) << 3
	d.nextKeyLow[i>>3] = d.nextKeyLow[i>>3]&^(0xff<<sh) | uint64(uint8(key))<<sh
}

// Depth returns the prefetch depth, an upper bound on the proposals one
// Observe call appends — callers size their reusable buffers with it.
func (d *StreamDetector) Depth() int { return d.depth }

// Observe presents a demand line address and returns the lines the engines
// want prefetched, appended to dst[:0]. The detector sits on the
// simulator's hottest path (every L1 miss), so the proposal buffer is
// caller-provided and reused across calls rather than allocated here; size
// it with Depth. The filter callback suppresses proposals the caller
// already has staged (nil = no filtering).
func (d *StreamDetector) Observe(line uint64, staged func(uint64) bool, dst []uint64) []uint64 {
	// Does this access continue a locked stream? The expectations of the
	// locked engines are packed in nextKey, so the scan is one compare per
	// engine — and skipped entirely while no engine is locked.
	if d.nconf > 0 {
		key := line + 1
		probe := uint64(uint8(key)) * swarLSB
		for wi, bw := range d.nextKeyLow {
			x := bw ^ probe
			for m := (x - swarLSB) &^ x & swarMSB; m != 0; m &= m - 1 {
				i := wi<<3 + bits.TrailingZeros64(m)>>3
				if i >= d.n || d.s[i].nextKey != key {
					continue
				}
				s := &d.s[i]
				s.last = line
				d.setLastLow(i, uint8(line))
				s.hits++
				d.zeroHits &^= 1 << uint(i)
				d.setNextKey(i, uint64(int64(line)+s.delta)+1)
				return d.ahead(line, s.delta, staged, dst)
			}
		}
	}
	// Does it lock a tentative stream? The first tracking-but-unlocked
	// engine whose seed is within maxDelta locks on, exactly as an
	// in-order scan over the engines would find it. The packed low bytes
	// screen all engines at once: byte distance within maxDelta mod 256
	// is necessary for a lock, so most scans reject every engine in two
	// word operations and only screen survivors are verified (in engine
	// order, which keeps the locked engine identical to a plain scan).
	if tent := d.valid &^ d.conf; tent != 0 {
		if d.maxDelta <= 7 {
			av := uint64(uint8(line)+uint8(d.maxDelta)) * swarLSB
			for wi, bw := range d.lastLow {
				diff := ((av | swarMSB) - (bw &^ swarMSB)) ^ ((av ^ ^bw) & swarMSB)
				z := diff & 0xf0f0f0f0f0f0f0f0
				for m := (z - swarLSB) &^ z & swarMSB; m != 0; m &= m - 1 {
					i := wi<<3 + bits.TrailingZeros64(m)>>3
					if tent&(1<<uint(i)) == 0 {
						continue
					}
					dd := int64(line) - int64(d.s[i].last)
					if dd == 0 || dd < -d.maxDelta || dd > d.maxDelta {
						continue
					}
					return d.lock(i, line, dd, staged, dst)
				}
			}
		} else {
			for m := tent; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dd := int64(line) - int64(d.s[i].last)
				if dd != 0 && dd >= -d.maxDelta && dd <= d.maxDelta {
					return d.lock(i, line, dd, staged, dst)
				}
			}
		}
	}
	// No stream matched: start (or steal) an engine — the first invalid
	// engine if any, else the first fewest-hits one.
	var victim int
	if inv := ^d.valid & engineMask(d.n); inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else if d.zeroHits != 0 {
		victim = bits.TrailingZeros64(d.zeroHits)
	} else {
		for i := 1; i < d.n; i++ {
			if d.s[i].hits < d.s[victim].hits {
				victim = i
			}
		}
	}
	if d.conf&(1<<victim) != 0 {
		d.nconf--
	}
	s := &d.s[victim]
	s.last = line
	d.setLastLow(victim, uint8(line))
	s.delta = 0
	s.hits = 0
	d.zeroHits |= 1 << uint(victim)
	d.setNextKey(victim, 0)
	d.valid |= 1 << victim
	d.conf &^= 1 << victim
	return nil
}

// lock confirms engine i's stride dd at line and returns its proposals.
func (d *StreamDetector) lock(i int, line uint64, dd int64, staged func(uint64) bool, dst []uint64) []uint64 {
	s := &d.s[i]
	s.delta = dd
	d.conf |= 1 << uint(i)
	s.last = line
	d.setLastLow(i, uint8(line))
	d.nconf++
	d.setNextKey(i, uint64(int64(line)+dd)+1)
	return d.ahead(line, dd, staged, dst)
}

// SWAR constants of the byte-wise tests: with LSB = 0x01… and MSB = 0x80…,
// (x-LSB) &^ x & MSB flags every zero byte of x (plus borrow-propagation
// false positives, which verification absorbs), and
// ((a|MSB)-(b&^MSB)) ^ ((a ^ ^b) & MSB) is the byte-wise difference a-b.
const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

func (d *StreamDetector) ahead(last uint64, delta int64, staged func(uint64) bool, dst []uint64) []uint64 {
	dst = dst[:0]
	for k := 1; k <= d.depth; k++ {
		next := int64(last) + delta*int64(k)
		if next < 0 {
			break
		}
		if staged == nil || !staged(uint64(next)) {
			dst = append(dst, uint64(next))
		}
	}
	return dst
}

// PrefetchConfig describes a prefetcher.
type PrefetchConfig struct {
	// NumStreams is the number of concurrent stream engines
	// (Blue Gene/P has roughly a dozen per core).
	NumStreams int
	// BufferLines is the prefetch-buffer capacity in L3 lines.
	BufferLines int
	// Depth is how many lines ahead a confirmed stream prefetches.
	Depth int
}

// DefaultPrefetchConfig mirrors the Blue Gene/P L2: 15 stream engines and a
// 2 KB buffer of 128-byte lines, prefetching two lines ahead.
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{NumStreams: 15, BufferLines: 16, Depth: 2}
}

// NewPrefetcher creates a prefetcher. A Depth of 0 disables prefetching
// entirely (stream engines still track, but never issue), the knob behind
// the prefetch-amount study the paper lists as future work.
func NewPrefetcher(cfg PrefetchConfig) *Prefetcher {
	if cfg.BufferLines <= 0 {
		panic("cache: invalid prefetcher configuration")
	}
	return &Prefetcher{
		det:    NewStreamDetector(cfg.NumStreams, DefaultMaxDelta, cfg.Depth),
		buffer: make([]uint64, cfg.BufferLines),
	}
}

// Depth returns the configured prefetch depth, the upper bound on the
// proposals one Access call returns.
func (p *Prefetcher) Depth() int { return p.det.Depth() }

// Access presents a demand line address (already shifted to line units) and
// returns whether it hit in the prefetch buffer, plus the line addresses
// the engines want prefetched, appended to dst[:0]. The proposal buffer is
// caller-provided and reused across calls (Access sits under every L1
// miss); size it with Depth. The caller must fill the wanted lines via
// Fill after fetching them from the lower levels.
func (p *Prefetcher) Access(line uint64, dst []uint64) (hit bool, want []uint64) {
	key := line + 1
	if p.mask&(1<<(key&63)) != 0 {
		for i, b := range p.buffer {
			if b == key {
				p.buffer[i] = 0
				p.Hits++
				hit = true
				break
			}
		}
	}
	if !hit {
		p.Misses++
	}

	want = p.det.Observe(line, p.contains, dst)
	p.Issued += uint64(len(want))
	return hit, want
}

func (p *Prefetcher) contains(line uint64) bool {
	key := line + 1
	if p.mask&(1<<(key&63)) == 0 {
		return false
	}
	for _, b := range p.buffer {
		if b == key {
			return true
		}
	}
	return false
}

// Fill installs a prefetched line into the buffer, evicting the oldest
// buffered line if the buffer is full.
func (p *Prefetcher) Fill(line uint64) {
	if p.contains(line) {
		return
	}
	p.fill(line)
}

// FillWanted installs a line that the immediately preceding Access call
// returned in its want list. Such proposals were already filtered against
// the staged buffer (and one call's proposals are mutually distinct), so
// the duplicate probe Fill performs is provably redundant and skipped.
func (p *Prefetcher) FillWanted(line uint64) { p.fill(line) }

func (p *Prefetcher) fill(line uint64) {
	p.buffer[p.next] = line + 1
	p.mask |= 1 << ((line + 1) & 63)
	if p.lazy++; p.lazy >= 2*len(p.buffer) {
		m := uint64(0)
		for _, b := range p.buffer {
			if b != 0 {
				m |= 1 << (b & 63)
			}
		}
		p.mask = m
		p.lazy = 0
	}
	if p.next++; p.next == len(p.buffer) {
		p.next = 0
	}
}

// Buffered returns the number of lines currently staged.
func (p *Prefetcher) Buffered() int {
	n := 0
	for _, b := range p.buffer {
		if b != 0 {
			n++
		}
	}
	return n
}
