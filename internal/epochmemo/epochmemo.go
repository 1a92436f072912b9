// Package epochmemo is the content-addressed store behind the MPI epoch
// memo (internal/mpi): the shared store (internal/cas) bounded in payload
// bytes, mapping 256-bit epoch keys to opaque replay records. It is the
// progcache idea applied to simulation state instead of compilation output
// — the key is a sha256 over the machine-state digest, the per-rank
// operation histories and the rank-invariant run parameters, so a hit
// proves (by content) that the simulator has executed this exact epoch
// before and may replay its recorded effects instead of simulating.
//
// The cache is shared process-wide by default, so repeated runs of the
// same configuration — benchmark reruns, figure regeneration, a daemon
// serving identical jobs — replay each other's epochs. Entries are
// immutable after Put; concurrent recorders of one key race benignly (the
// first Put wins and later ones are dropped, mirroring progcache's
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
// full figure suite's epochs at quick scale with headroom, small enough to
// stay irrelevant next to the simulated machines themselves.
const DefaultBudget = 256 << 20

// Cache is a byte-bounded LRU of immutable epoch records, safe for
// concurrent use. Put charges each record its payload size; records
// implementing Checksummer are verified on every hit.
type Cache = cas.Store[Key, any]

// New creates a cache holding at most budget payload bytes; budget < 1
// means unbounded.
func New(budget int64) *Cache {
	return cas.New[Key, any](budget, func(v any) (uint64, bool) {
		cs, ok := v.(Checksummer)
		if !ok {
			return 0, false
		}
		return cs.Checksum(), true
	})
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
