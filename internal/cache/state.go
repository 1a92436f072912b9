package cache

import "math/bits"

// State capture for the epoch memo (internal/mpi): every structure whose
// contents influence future hits, misses, replacement decisions or event
// counters can flatten itself into (and restore itself from) a plain
// []uint64 window, so whole-machine state can be fingerprinted and
// byte-exactly reinstalled at epoch boundaries.
//
// Everything mutable is captured raw — including the host-side accelerator
// summaries (prefetch/snoop masks, SWAR screens): they are deterministic
// functions of the access history, so capturing and restoring them verbatim
// reproduces the exact structure a live execution would hold. Two exceptions:
// the Cache hit-way hint array — probing a stale hint first can never change
// which way a hit lands in or whether it hits at all, so it is excluded from
// state windows and simply left as-is on restore — and the StreamDetector's
// zero-hits mask, which WriteState rebuilds from the hit counts it restores
// (its window word stays the count of engines with hits it always was).

// StateLen returns the cache's state window size in words.
func (c *Cache) StateLen() int { return len(c.slab) + 3 }

// ReadState flattens the cache into dst and returns the words written.
func (c *Cache) ReadState(dst []uint64) int {
	n := copy(dst, c.slab)
	dst[n] = c.Hits
	dst[n+1] = c.Misses
	dst[n+2] = c.Writebacks
	return n + 3
}

// WriteState restores a window read with ReadState.
func (c *Cache) WriteState(src []uint64) int {
	n := copy(c.slab, src[:len(c.slab)])
	c.Hits = src[n]
	c.Misses = src[n+1]
	c.Writebacks = src[n+2]
	return n + 3
}

// StateLen returns the detector's state window size in words.
func (d *StreamDetector) StateLen() int {
	return 4*len(d.s) + len(d.lastLow) + len(d.nextKeyLow) + 4
}

// ReadState flattens the detector into dst and returns the words written.
func (d *StreamDetector) ReadState(dst []uint64) int {
	i := 0
	for k := range d.s {
		e := &d.s[k]
		dst[i] = e.last
		dst[i+1] = uint64(e.delta)
		dst[i+2] = e.nextKey
		dst[i+3] = uint64(uint32(e.hits))
		i += 4
	}
	i += copy(dst[i:], d.lastLow)
	i += copy(dst[i:], d.nextKeyLow)
	dst[i] = d.valid
	dst[i+1] = d.conf
	dst[i+2] = uint64(d.nconf)
	dst[i+3] = uint64(d.n - bits.OnesCount64(d.zeroHits)) // engines with hits
	return i + 4
}

// WriteState restores a window read with ReadState.
func (d *StreamDetector) WriteState(src []uint64) int {
	i := 0
	d.zeroHits = 0
	for k := range d.s {
		e := &d.s[k]
		e.last = src[i]
		e.delta = int64(src[i+1])
		e.nextKey = src[i+2]
		e.hits = int32(uint32(src[i+3]))
		if e.hits == 0 {
			d.zeroHits |= 1 << uint(k)
		}
		i += 4
	}
	i += copy(d.lastLow, src[i:i+len(d.lastLow)])
	i += copy(d.nextKeyLow, src[i:i+len(d.nextKeyLow)])
	d.valid = src[i]
	d.conf = src[i+1]
	d.nconf = int(src[i+2])
	return i + 4 // src[i+3], the engines-with-hits count, is zeroHits' popcount
}

// StateLen returns the prefetcher's state window size in words.
func (p *Prefetcher) StateLen() int {
	return p.det.StateLen() + len(p.buffer) + 6
}

// ReadState flattens the prefetcher (including its detector) into dst and
// returns the words written.
func (p *Prefetcher) ReadState(dst []uint64) int {
	i := p.det.ReadState(dst)
	i += copy(dst[i:], p.buffer)
	dst[i] = uint64(p.next)
	dst[i+1] = p.mask
	dst[i+2] = uint64(p.lazy)
	dst[i+3] = p.Hits
	dst[i+4] = p.Misses
	dst[i+5] = p.Issued
	return i + 6
}

// WriteState restores a window read with ReadState.
func (p *Prefetcher) WriteState(src []uint64) int {
	i := p.det.WriteState(src)
	i += copy(p.buffer, src[i:i+len(p.buffer)])
	p.next = int(src[i])
	p.mask = src[i+1]
	p.lazy = int(src[i+2])
	p.Hits = src[i+3]
	p.Misses = src[i+4]
	p.Issued = src[i+5]
	return i + 6
}

// StateLen returns the snoop filter's state window size in words.
func (f *SnoopFilter) StateLen() int { return len(f.tags) + 6 }

// ReadState flattens the filter into dst and returns the words written.
func (f *SnoopFilter) ReadState(dst []uint64) int {
	i := copy(dst, f.tags)
	dst[i] = uint64(f.next)
	dst[i+1] = f.mask
	dst[i+2] = uint64(f.lazy)
	dst[i+3] = f.Requests
	dst[i+4] = f.Filtered
	dst[i+5] = f.Invalidates
	return i + 6
}

// WriteState restores a window read with ReadState.
func (f *SnoopFilter) WriteState(src []uint64) int {
	i := copy(f.tags, src[:len(f.tags)])
	f.next = int(src[i])
	f.mask = src[i+1]
	f.lazy = int(src[i+2])
	f.Requests = src[i+3]
	f.Filtered = src[i+4]
	f.Invalidates = src[i+5]
	return i + 6
}
