// Package epochmemo is the content-addressed store behind the MPI epoch
// memo (internal/mpi): the shared store (internal/cas) bounded in payload
// bytes, mapping 256-bit epoch keys to opaque replay records. It is the
// progcache idea applied to simulation state instead of compilation output
// — the key is a sha256 over the machine-state digest, the per-rank
// operation histories and the run's configuration key, so a hit proves (by
// content) that the simulator has executed this exact epoch before and may
// replay its recorded effects instead of simulating.
//
// The configuration key is the full run identity, so an entry is only ever
// hit by a rerun of the identity that recorded it: a duplicate point across
// figures, a fault-injected retry, a warm regeneration, a daemon re-running
// a job its result store no longer holds. Admission is therefore decided
// once per identity, on second sight. The first run of an identity leaves
// one mark (Admit, SeenCost bytes) in the same store, under the same budget
// and LRU as the records, and the caller runs the whole job with the memo
// idle — most identities of a cold sweep or a daemon's job mix are never
// met again, and hashing or recording for them is pure cost. A run that
// finds the mark has observed the redundancy the memo exists for and
// records every epoch it cannot replay. A mark evicted under pressure
// degrades to a first run.
//
// The cache is shared process-wide by default. Entries are immutable after
// Put; concurrent recorders of one key race benignly (the first wins and
// later ones are dropped, mirroring progcache's in-flight dedup at store
// granularity).
package epochmemo

import (
	"crypto/sha256"
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
// epochs of the figure suite's rerun identities at quick scale with
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

// Cache is a byte-bounded LRU of immutable epoch records and run-marks,
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

// Admit reports whether a run of this identity has been admitted before,
// and leaves the identity's mark when it has not: false tells the caller
// to run with the memo idle, true to replay what is stored and record what
// is not. The mark lives under sha256("run\x00"+identity), a domain no
// epoch key shares. Two workers meeting one unseen identity at the same
// time may both be told false; both then run live, which is always exact.
func (c *Cache) Admit(identity string) bool {
	k := Key(sha256.Sum256([]byte("run\x00" + identity)))
	if c.Get(k) != nil {
		return true
	}
	c.Put(k, seenMark{}, SeenCost)
	return false
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
