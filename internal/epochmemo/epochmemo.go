// Package epochmemo is the content-addressed store behind the MPI epoch
// memo (internal/mpi): the shared store (internal/cas) bounded in payload
// bytes, mapping 256-bit epoch keys to opaque replay records. It is the
// progcache idea applied to simulation state instead of compilation output
// — the key is a sha256 over the machine-state digest, the per-rank
// operation histories and the rank-invariant run parameters, so a hit
// proves (by content) that the simulator has executed this exact epoch
// before and may replay its recorded effects instead of simulating.
//
// Admission is on second sight. Recording an epoch costs a copy of the
// machine-state vector and an entry of up to megabytes, and most epochs of
// a cold sweep or a daemon's job mix are never met again; so the first
// probe of a key leaves only a mark (MarkSeen, SeenCost bytes) in the same
// store, under the same budget and LRU, and the caller runs the epoch
// unrecorded. A probe that finds the mark has observed the redundancy the
// memo exists for: the caller records, and Record replaces the mark with
// the entry. A mark evicted under pressure degrades to a first sight.
//
// The cache is shared process-wide by default, so repeated runs of the
// same configuration — benchmark reruns, figure regeneration, a daemon
// serving identical jobs — replay each other's epochs. Entries are
// immutable after Record; concurrent recorders of one key race benignly
// (the first wins and later ones are dropped, mirroring progcache's
// in-flight dedup at store granularity).
package epochmemo

import (
	"sync"

	"bgpsim/internal/cas"
)

// Key is a 256-bit content address of one epoch.
type Key [32]byte

// Checksummer lets a cached record carry end-to-end integrity: Put snapshots
// the record's checksum and Get/GetChecked recompute and compare it before
// returning the record. A mismatch — bit rot, an accidental mutation of a
// supposedly immutable entry, a buggy recorder — evicts the entry and reads
// as a miss, so a damaged epoch can cost time but never a wrong answer.
// Records that don't implement the interface are cached unchecked.
type Checksummer interface {
	// Checksum folds the record's observable content into one word; it
	// must be deterministic and must cover every field replay consumes.
	Checksum() uint64
}

// DefaultBudget bounds the process-wide default cache: enough for the
// figure suite's recurring epochs at quick scale with headroom. It is not
// small next to the simulated machines (a quick-scale machine flattens to
// about 6 MB), which is why admission waits for a key to recur.
const DefaultBudget = 256 << 20

// SeenCost is what a seen-mark is charged: the store's bookkeeping for one
// key (map slot, LRU element, entry header), which is all a mark holds.
const SeenCost = 256

// seenMark is the value a first probe leaves under its key.
type seenMark struct{}

func isSeenMark(v any) bool {
	_, mark := v.(seenMark)
	return mark
}

// Cache is a byte-bounded LRU of immutable epoch records and seen-marks,
// safe for concurrent use. Records implementing Checksummer are verified
// on every hit. The embedded store's Stats count marks like any other
// entry: Entries and Cost cover both, Hits includes probes that found a
// mark.
type Cache struct {
	*cas.Store[Key, any]
}

// New creates a cache holding at most budget payload bytes; budget < 1
// means unbounded.
func New(budget int64) *Cache {
	return &Cache{cas.New[Key, any](budget, func(v any) (uint64, bool) {
		cs, ok := v.(Checksummer)
		if !ok {
			return 0, false
		}
		return cs.Checksum(), true
	})}
}

// Probe looks k up under the second-sight policy. rec is the record stored
// under k, nil unless one is present and intact. seen reports that k has
// been probed before — it carries a mark, or carried a record that just
// failed its checksum (corrupt; evicted) — so an epoch that misses with
// seen set is worth recording, and one that misses without it is not yet.
func (c *Cache) Probe(k Key) (rec any, seen, corrupt bool) {
	v, corrupt := c.GetChecked(k)
	if isSeenMark(v) {
		return nil, true, false
	}
	return v, v != nil || corrupt, corrupt
}

// MarkSeen remembers that k was probed. It never displaces a record.
func (c *Cache) MarkSeen(k Key) {
	c.Put(k, seenMark{}, SeenCost)
}

// Record stores rec, of the given cost in bytes, under k — in place of k's
// seen-mark when it still has one — and reports whether it was accepted:
// a record already present wins, and one larger than the whole budget is
// dropped.
func (c *Cache) Record(k Key, rec any, cost int64) bool {
	return c.Promote(k, rec, cost, isSeenMark)
}

var (
	defaultOnce  sync.Once
	defaultCache *Cache
)

// Default returns the process-wide shared cache. Its budget belongs to the
// process, not to a run: a command re-bounds it once at start-up
// (-epochmemo-bytes → SetBudget) and no run ever resizes it, so one job
// cannot evict another's working set.
func Default() *Cache {
	defaultOnce.Do(func() { defaultCache = New(DefaultBudget) })
	return defaultCache
}
