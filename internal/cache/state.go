package cache

import (
	"math/bits"

	"bgpsim/internal/statehash"
)

// State capture for the epoch memo (internal/mpi): every structure whose
// contents influence future hits, misses, replacement decisions or event
// counters lists its mutable fields once, in a State method, and
// statehash.Read/Write flatten it into (and restore it from) a plain
// []uint64 window, so whole-machine state can be fingerprinted and
// byte-exactly reinstalled at epoch boundaries.
//
// Everything mutable is walked raw — including the host-side accelerator
// summaries (prefetch/snoop masks, SWAR screens): they are deterministic
// functions of the access history, so capturing and restoring them verbatim
// reproduces the exact structure a live execution would hold. Two exceptions:
// the Cache hit-way hint array — probing a stale hint first can never change
// which way a hit lands in or whether it hits at all, so it is left out of
// the window and simply left as-is on restore — and the StreamDetector's
// zero-hits mask, which a restoring walk rebuilds from the hit counts it
// restores (its window word stays the count of engines with hits it always
// was).

// State walks the cache's state window.
func (c *Cache) State(w *statehash.Walk) {
	w.Words(c.slab)
	w.U64(&c.Hits)
	w.U64(&c.Misses)
	w.U64(&c.Writebacks)
}

// State walks the detector's state window.
func (d *StreamDetector) State(w *statehash.Walk) {
	if w.Restoring() {
		d.zeroHits = 0
	}
	for k := range d.s {
		e := &d.s[k]
		w.U64(&e.last)
		w.I64(&e.delta)
		w.U64(&e.nextKey)
		w.I32(&e.hits)
		if w.Restoring() && e.hits == 0 {
			d.zeroHits |= 1 << uint(k)
		}
	}
	w.Words(d.lastLow)
	w.Words(d.nextKeyLow)
	w.U64(&d.valid)
	w.U64(&d.conf)
	w.Int(&d.nconf)
	withHits := uint64(d.n - bits.OnesCount64(d.zeroHits))
	w.U64(&withHits) // engines with hits: zeroHits, already rebuilt above on restore
}

// State walks the prefetcher's state window, its detector's first.
func (p *Prefetcher) State(w *statehash.Walk) {
	p.det.State(w)
	w.Words(p.buffer)
	w.Int(&p.next)
	w.U64(&p.mask)
	w.Int(&p.lazy)
	w.U64(&p.Hits)
	w.U64(&p.Misses)
	w.U64(&p.Issued)
}

// State walks the snoop filter's state window.
func (f *SnoopFilter) State(w *statehash.Walk) {
	w.Words(f.tags)
	w.Int(&f.next)
	w.U64(&f.mask)
	w.Int(&f.lazy)
	w.U64(&f.Requests)
	w.U64(&f.Filtered)
	w.U64(&f.Invalidates)
}
