// Package cas is the simulator's one content-addressed store: a cost-bounded
// LRU with build-once-per-key deduplication.
// The compile cache (internal/progcache), the epoch memo (internal/epochmemo)
// and the daemon's in-flight result tier (internal/server) are all
// instantiations of Store; each of them owns only its key derivation and its
// default size.
//
// Keys are content addresses — a key names exactly one value — so entries are
// immutable once stored, the first writer of a key wins, and a hit is always
// interchangeable with a rebuild. The bound is a cost budget: charging every
// entry cost 1 bounds the entry count, charging payload bytes bounds memory.
package cas

import (
	"container/list"
	"context"
	"sync"
)

// Stats are cumulative store counters plus the current occupancy.
type Stats struct {
	// Hits counts lookups that found an entry (including Do calls that
	// waited on a concurrent build of the same key).
	Hits uint64
	// Misses counts Get probes that found nothing and Do calls that built.
	Misses uint64
	// Stores counts entries accepted by Put.
	Stores uint64
	// Dropped counts Puts discarded because the key already held a value (a
	// concurrent writer won the race) or the entry alone exceeded the whole
	// budget.
	Dropped uint64
	// Evictions counts entries dropped by the cost budget.
	Evictions uint64
	// Cost is the current resident cost.
	Cost int64
	// Entries is the current entry count, in-flight builds included.
	Entries int
}

// entry is one stored value. A Do entry is in flight until done is set;
// ready is closed at that moment, and waiters block on it outside the store
// lock so a slow build never serializes unrelated lookups.
type entry[K comparable, V any] struct {
	key   K
	elem  *list.Element
	cost  int64
	done  bool
	ready chan struct{} // nil for Put entries, which are born done
	val   V
	err   error
}

// Store is a cost-bounded LRU of immutable values, safe for concurrent use.
type Store[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	cost    int64
	entries map[K]*entry[K, V]
	order   *list.List // front = most recently used; values are *entry[K, V]
	stats   Stats
}

// New creates a store holding at most budget total cost; budget < 1 means
// unbounded.
func New[K comparable, V any](budget int64) *Store[K, V] {
	return &Store[K, V]{
		budget:  budget,
		entries: make(map[K]*entry[K, V]),
		order:   list.New(),
	}
}

// Get returns the value stored under k, or V's zero value. A found entry is
// marked most recently used. A build still in flight reads as a miss.
func (s *Store[K, V]) Get(k K) (val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil || !e.done {
		s.stats.Misses++
		return val
	}
	s.stats.Hits++
	s.order.MoveToFront(e.elem)
	return e.val
}

// Put stores an immutable value of the given cost under k and reports
// whether it was accepted. A key already present keeps its existing value
// (entries are content-addressed, so both copies are interchangeable;
// dropping the newcomer is the cheap side of the race). An oversized value —
// costlier than the whole budget — is dropped rather than evicting
// everything else.
func (s *Store[K, V]) Put(k K, val V, cost int64) bool {
	if cost < 0 {
		cost = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok || (s.budget > 0 && cost > s.budget) {
		s.stats.Dropped++
		return false
	}
	s.insertLocked(&entry[K, V]{key: k, cost: cost, done: true, val: val})
	s.stats.Stores++
	return true
}

// Do returns the value stored under k, building it with build on a miss.
// Concurrent callers of one key share one build: the first runs it, the rest
// wait — until it finishes or their own ctx is done — and all of them report
// hit, whether or not the wait produced a value. cost is charged against the
// budget from the moment the build starts. Failed builds are not stored:
// every caller waiting on the failed build gets its error, and the next
// lookup retries. The returned value is shared — callers must treat it as
// immutable.
func (s *Store[K, V]) Do(ctx context.Context, k K, cost int64, build func() (V, error)) (val V, hit bool, err error) {
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		s.stats.Hits++
		s.order.MoveToFront(e.elem)
		done := e.done
		s.mu.Unlock()
		if !done {
			select {
			case <-e.ready:
			case <-ctx.Done():
				return val, true, ctx.Err()
			}
		}
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: k, cost: cost, ready: make(chan struct{})}
	s.insertLocked(e)
	s.stats.Misses++
	s.mu.Unlock()

	val, err = build()

	s.mu.Lock()
	e.val, e.err, e.done = val, err, true
	if err != nil {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	close(e.ready)
	return val, false, err
}

// Delete drops the entry under k, if any. Waiters already parked on an
// in-flight build still receive its result.
func (s *Store[K, V]) Delete(k K) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.removeLocked(e)
	}
}

// SetBudget re-bounds the store to at most budget total cost (budget < 1 =
// unbounded), evicting least-recently-used entries as needed. Resizing never
// affects what a lookup returns — evicted entries are simply rebuilt.
func (s *Store[K, V]) SetBudget(budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = budget
	s.evictLocked()
}

// Keys returns the stored keys in no particular order. Its callers are
// tests that need to reach entries without knowing how their keys were
// derived; ROADMAP item 1(c) deletes it with the last of them.
func (s *Store[K, V]) Keys() []K {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]K, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	return keys
}

// Stats returns a snapshot of the counters.
func (s *Store[K, V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Cost = s.cost
	st.Entries = len(s.entries)
	return st
}

// insertLocked links e as the most recently used entry, charges its cost and
// re-establishes the budget.
func (s *Store[K, V]) insertLocked(e *entry[K, V]) {
	e.elem = s.order.PushFront(e)
	s.entries[e.key] = e
	s.cost += e.cost
	s.evictLocked()
}

// removeLocked unlinks e unless it is already gone (a Delete can race a
// failing build to it).
func (s *Store[K, V]) removeLocked(e *entry[K, V]) {
	if s.entries[e.key] != e {
		return
	}
	s.order.Remove(e.elem)
	delete(s.entries, e.key)
	s.cost -= e.cost
}

// evictLocked enforces the budget, dropping least-recently-used completed
// entries; in-flight builds are skipped so an eviction never orphans waiters
// mid-build.
func (s *Store[K, V]) evictLocked() {
	if s.budget < 1 {
		return
	}
	for el := s.order.Back(); el != nil && s.cost > s.budget; {
		prev := el.Prev()
		if e := el.Value.(*entry[K, V]); e.done {
			s.removeLocked(e)
			s.stats.Evictions++
		}
		el = prev
	}
}
