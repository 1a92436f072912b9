// Package epochmemo is the store behind the MPI epoch memo (internal/mpi):
// the shared store (internal/cas) bounded in payload bytes, holding one entry
// per run identity under a key derived from the identity alone. The memo's
// configuration key is the full run identity and a simulation is a
// deterministic function of it, so what is worth keeping about an identity is
// a replay log of its run, not a content address per epoch: the entry is
// either the identity's mark or its record — to internal/mpi, the chain of
// epochs a run of the identity recorded, which later runs replay instead of
// simulating.
//
// An entry is only ever read by a rerun of its identity: a duplicate point
// across figures, a fault-injected retry, a warm regeneration, a daemon
// re-running a job its result store no longer holds. Admission is therefore
// decided once per identity, on second sight. The first run of an identity
// leaves one mark (Admit, SeenCost bytes) under the same budget and LRU as
// the records, and the caller runs the whole job with the memo idle — most
// identities of a cold sweep or a daemon's job mix are never met again, and
// recording for them is pure cost. A run that finds the mark has observed
// the redundancy the memo exists for and puts its record in the mark's place
// (Record); a run that finds a record replays it. An entry evicted under
// pressure degrades to a first run.
//
// The cache is shared process-wide by default. Records are immutable once
// stored; concurrent recorders of one identity race benignly (their records
// are interchangeable, the last one stored stays).
package epochmemo

import (
	"crypto/sha256"
	"sync"

	"bgpsim/internal/cas"
)

// Key is the 256-bit store key of one run identity.
type Key [32]byte

// DefaultBudget bounds the process-wide default cache: enough for the
// chains of the figure suite's rerun identities at quick scale with
// headroom. It is not small next to the simulated machines (a quick-scale
// machine flattens to about 6 MB), which is why nothing is recorded for an
// identity until it has been run once already.
const DefaultBudget = 256 << 20

// SeenCost is what a run-mark is charged: the store's bookkeeping for one
// key (map slot, LRU element, entry header), which is all a mark holds. It
// is also the store overhead of a record, so records add it to their
// payload.
const SeenCost = 256

// seenMark is the value the first run of an identity leaves under its key.
type seenMark struct{}

// Cache is a byte-bounded LRU of immutable per-identity records and
// run-marks, safe for concurrent use. The store keeps records as they are
// handed to it: the MPI memo's chains verify themselves epoch by epoch as
// they replay, outside the store's lock. The embedded store's Stats count
// marks like any other entry: Entries and Cost cover both, Hits includes
// probes that found a mark.
type Cache struct {
	*cas.Store[Key, any]
}

// New creates a cache holding at most budget payload bytes; budget < 1
// means unbounded.
func New(budget int64) *Cache {
	return &Cache{cas.New[Key, any](budget)}
}

// Admit looks a run identity up and leaves its mark when it has never been
// seen. It returns the identity's key, sha256(identity), and what the cache
// held under it: nothing (seen false — the caller runs with the memo idle),
// the mark (seen true, rec nil — the caller records) or the record an
// earlier run stored (the caller replays it). Two workers meeting one unseen
// identity at the same time may both be told false; both then run live,
// which is always exact.
func (c *Cache) Admit(identity string) (k Key, seen bool, rec any) {
	k = Key(sha256.Sum256([]byte(identity)))
	switch v := c.Get(k).(type) {
	case nil:
		c.Put(k, seenMark{}, SeenCost)
		return k, false, nil
	case seenMark:
		return k, true, nil
	default:
		return k, true, v
	}
}

// Record stores rec as the identity's record, in place of its mark or of a
// record that no longer fits, and reports whether the store accepted it. The
// swap is a Delete and a Put: a run admitted in between finds nothing, leaves
// a fresh mark and runs idle, and the record is dropped in the mark's favour
// — a lost recording, never a wrong one.
func (c *Cache) Record(k Key, rec any, cost int64) bool {
	c.Delete(k)
	return c.Put(k, rec, cost)
}

// Drop takes the identity back to its mark: its record proved unusable, and
// the identity's next run is to record afresh.
func (c *Cache) Drop(k Key) { c.Record(k, seenMark{}, SeenCost) }

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
