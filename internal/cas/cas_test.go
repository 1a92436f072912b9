package cas

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

// build returns a Do builder yielding v and counting its invocations.
func build(v any, calls *int) func() (any, error) {
	return func() (any, error) { *calls++; return v, nil }
}

// TestStoreContract is the one place the store's behaviour is pinned; the
// compile cache, the epoch memo and the daemon's flight table all rely on it
// and test only their own key derivation and wiring.
func TestStoreContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		// Get, put and hit/miss/store counters.
		{"get-put-counters", func(t *testing.T) {
			s := New[string, any](0)
			if v := s.Get("a"); v != nil {
				t.Fatal("hit on an empty store")
			}
			s.Put("a", "one", 8)
			if v := s.Get("a"); v != "one" {
				t.Fatalf("got %v, want one", v)
			}
			if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Cost != 8 || st.Entries != 1 {
				t.Fatalf("stats %+v", st)
			}
		}},
		// Count bound: unit cost evicts the least recently used build.
		{"count-bound", func(t *testing.T) {
			s := New[string, any](2)
			builds := 0
			get := func(k string) {
				t.Helper()
				if v, _, err := s.Do(bg, k, 1, build(k, &builds)); err != nil || v != k {
					t.Fatalf("Do(%q) = %v, %v", k, v, err)
				}
			}
			get("a")
			get("a")
			if builds != 1 {
				t.Fatalf("second lookup built again (%d builds)", builds)
			}
			get("b")
			get("a") // "b" is now least recently used
			get("c")
			if s.Stats().Entries != 2 {
				t.Fatalf("Entries = %d, want 2", s.Stats().Entries)
			}
			before := builds
			get("a")
			if builds != before {
				t.Error("LRU evicted the most recently used entry")
			}
			get("b")
			if builds != before+1 {
				t.Error("evicted entry was served without rebuilding")
			}
			if st := s.Stats(); st.Misses != 4 || st.Hits != 3 || st.Evictions != 2 {
				t.Errorf("stats %+v, want 4 misses, 3 hits, 2 evictions", st)
			}
		}},
		// Byte bound: payload cost evicts the least recently used entry.
		{"byte-bound", func(t *testing.T) {
			s := New[string, any](30)
			s.Put("1", 1, 10)
			s.Put("2", 2, 10)
			s.Put("3", 3, 10)
			s.Get("1") // "2" is now least recently used
			s.Put("4", 4, 10)
			if s.Get("2") != nil {
				t.Fatal("LRU entry survived eviction")
			}
			if s.Get("1") == nil || s.Get("3") == nil || s.Get("4") == nil {
				t.Fatal("recently used entries evicted")
			}
			if st := s.Stats(); st.Evictions != 1 || st.Cost != 30 || st.Entries != 3 {
				t.Fatalf("stats %+v", st)
			}
		}},
		// Budget below one is unbounded.
		{"unbounded", func(t *testing.T) {
			s := New[string, any](0)
			n := 0
			for i := 0; i < 100; i++ {
				if _, _, err := s.Do(bg, fmt.Sprint(i), 1, build(nil, &n)); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.Entries != 100 || st.Evictions != 0 {
				t.Errorf("unbounded store evicted: %+v", st)
			}
		}},
		// Oversized put is dropped, residents stay.
		{"oversized-put-dropped", func(t *testing.T) {
			s := New[string, any](10)
			s.Put("small", 1, 5)
			if s.Put("huge", 2, 100) || s.Get("huge") != nil {
				t.Fatal("oversized entry stored")
			}
			if s.Get("small") == nil {
				t.Fatal("oversized Put evicted resident entries")
			}
		}},
		// First put wins.
		{"first-put-wins", func(t *testing.T) {
			s := New[string, any](0)
			s.Put("k", "first", 8)
			if s.Put("k", "second", 8) {
				t.Fatal("duplicate Put accepted")
			}
			if v := s.Get("k"); v != "first" {
				t.Fatalf("duplicate Put replaced the entry: %v", v)
			}
			if st := s.Stats(); st.Stores != 1 || st.Dropped != 1 || st.Cost != 8 {
				t.Fatalf("stats %+v", st)
			}
		}},
		// Set budget evicts down to the bound, growing evicts nothing.
		{"set-budget", func(t *testing.T) {
			s := New[string, any](0)
			for _, k := range []string{"1", "2", "3", "4"} {
				s.Put(k, k, 10)
			}
			s.Get("1") // "2" is now least recently used
			s.SetBudget(25)
			if s.Get("2") != nil || s.Get("3") != nil {
				t.Fatal("SetBudget kept least-recently-used entries over the bound")
			}
			if s.Get("1") == nil || s.Get("4") == nil {
				t.Fatal("SetBudget evicted recently used entries")
			}
			if st := s.Stats(); st.Cost != 20 || st.Entries != 2 || st.Evictions != 2 {
				t.Fatalf("stats %+v", st)
			}
			s.SetBudget(0)
			if !s.Put("5", 5, 1000) || s.Get("5") == nil {
				t.Fatal("unbounded store rejected an entry")
			}
		}},
		// Failed build is not stored and the next lookup retries.
		{"failed-build-retried", func(t *testing.T) {
			s := New[string, any](4)
			boom := errors.New("boom")
			calls := 0
			fail := func() (any, error) { calls++; return nil, boom }
			for want := 1; want <= 2; want++ {
				if _, hit, err := s.Do(bg, "k", 1, fail); !errors.Is(err, boom) || hit || calls != want {
					t.Fatalf("failing build %d: hit=%t err=%v calls=%d", want, hit, err, calls)
				}
				if st := s.Stats(); st.Entries != 0 || st.Cost != 0 {
					t.Fatalf("failed build stayed in the store: %+v", st)
				}
			}
			ok := 0
			if v, _, err := s.Do(bg, "k", 1, build("v", &ok)); err != nil || v != "v" || calls != 2 {
				t.Fatalf("build after failures: v=%v err=%v failing calls=%d", v, err, calls)
			}
		}},
		// Concurrent builds of one key run once, other keys are not blocked.
		{"concurrent-build-once", func(t *testing.T) {
			s := New[string, any](8)
			var builds atomic.Int64
			started, release := make(chan struct{}), make(chan struct{})
			slow := func() (any, error) {
				builds.Add(1)
				close(started)
				<-release // hold the build so every other goroutine piles up on it
				return "shared", nil
			}
			const n = 32
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if v, _, err := s.Do(bg, "shared", 1, slow); err != nil || v != "shared" {
						t.Errorf("Do = %v, %v", v, err)
					}
				}()
			}
			<-started
			other := 0
			if _, _, err := s.Do(bg, "other", 1, build(nil, &other)); err != nil {
				t.Error(err)
			}
			close(release)
			wg.Wait()
			if b := builds.Load(); b != 1 {
				t.Errorf("%d builds ran for one key, want 1", b)
			}
			if st := s.Stats(); st.Misses != 2 || st.Hits != n-1 {
				t.Errorf("stats %+v, want 2 misses (shared+other) and %d hits", st, n-1)
			}
		}},
		// A waiter gives up with its own context and still counts as a hit.
		{"waiter-context", func(t *testing.T) {
			s := New[string, any](0)
			started, release := make(chan struct{}), make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Do(bg, "k", 0, func() (any, error) { close(started); <-release; return "v", nil })
			}()
			<-started
			ctx, cancel := context.WithCancel(bg)
			cancel()
			if v, hit, err := s.Do(ctx, "k", 0, nil); v != nil || !hit || !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled waiter: v=%v hit=%t err=%v", v, hit, err)
			}
			close(release)
			<-done
			if v, hit, err := s.Do(ctx, "k", 0, nil); v != "v" || !hit || err != nil {
				t.Errorf("completed entry under a dead context: v=%v hit=%t err=%v", v, hit, err)
			}
		}},
		// In-flight entry is never evicted.
		{"in-flight-not-evicted", func(t *testing.T) {
			s := New[string, any](1)
			started, release := make(chan struct{}), make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				if v, _, err := s.Do(bg, "slow", 1, func() (any, error) { close(started); <-release; return "slow", nil }); err != nil || v != "slow" {
					t.Errorf("slow build: %v, %v", v, err)
				}
			}()
			<-started
			// Overflow the budget while "slow" is in flight; only completed
			// entries may be evicted, so these churn among themselves.
			n := 0
			for i := 0; i < 4; i++ {
				if _, _, err := s.Do(bg, fmt.Sprint(i), 1, build(nil, &n)); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			<-done
			if _, hit, _ := s.Do(bg, "slow", 1, build(nil, &n)); !hit {
				t.Error("in-flight entry was evicted; the lookup rebuilt")
			}
		}},
		// Delete drops an entry so the next lookup rebuilds.
		{"delete", func(t *testing.T) {
			s := New[string, any](0)
			n := 0
			s.Do(bg, "k", 1, build("v", &n))
			s.Delete("k")
			s.Delete("absent")
			if st := s.Stats(); st.Entries != 0 || st.Cost != 0 {
				t.Fatalf("stats after Delete %+v", st)
			}
			if _, hit, _ := s.Do(bg, "k", 1, build("v", &n)); hit || n != 2 {
				t.Errorf("lookup after Delete: hit=%t builds=%d", hit, n)
			}
		}},
		// Keys lists every entry and bypasses stats.
		{"keys-bypass-stats", func(t *testing.T) {
			s := New[string, any](0)
			s.Put("1", "a", 1)
			s.Put("2", "b", 1)
			keys := s.Keys()
			sort.Strings(keys)
			if len(keys) != 2 || keys[0] != "1" || keys[1] != "2" {
				t.Fatalf("Keys = %v", keys)
			}
			if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("Keys touched stats: %+v", st)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
