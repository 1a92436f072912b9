// Package progcache is the content-addressed compile cache of the
// simulator. Parameter sweeps re-run the same NAS benchmark at
// many machine configurations, and the compiled programs depend only on the
// authored kernel IR, the compiler options and the virtual-ISA generation —
// not on the machine — so adjacent sweep points can share one immutable
// compilation instead of lowering the kernel per run.
//
// A cache entry is the full phase map of one (kernel, options) build, keyed
// by a fingerprint of the kernel source, the build flags and isa.Version.
// Entries are immutable because nothing writes a program after Compile
// returns — an isa.Program is plain data, and all run-time state lives in
// per-rank core.ExecState — so one entry is safely shared by every worker
// of a sweep. The cache deduplicates concurrent misses: when
// two workers want the same build, one compiles and the other waits.
//
// The cache is a pure host-side optimization with an exactness contract:
// a cached program is byte-for-byte the program a fresh compilation would
// produce, so counter dumps are identical with the cache on, off, hot or
// cold (pinned by the determinism harness in bgp_progcache_test).
package progcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"bgpsim/internal/cas"
	"bgpsim/internal/compiler"
	"bgpsim/internal/isa"
)

// DefaultCapacity bounds the process-wide default cache. The paper's full
// figure suite needs 8 benchmarks × 7 compiler builds = 56 distinct
// entries; 256 leaves generous headroom without letting a pathological
// sweep grow without bound.
const DefaultCapacity = 256

// Key fingerprints one compilation unit. Two builds collide exactly when
// they would produce identical programs: the kernel IR (pure value types,
// so its canonical %+v rendering is deterministic across processes and Go
// versions), the compiler options, and the virtual-ISA generation all
// match. Machine parameters are deliberately absent — programs are
// machine-independent, which is what makes sweep points shareable.
func Key(k *compiler.Kernel, opts compiler.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "isa=%d\nopts=%+v\nkernel=%+v\n", isa.Version, opts, *k)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a bounded LRU of compiled phase maps, safe for concurrent use:
// the shared content-addressed store keyed by Key, every build charged one
// unit of capacity.
type Cache = cas.Store[string, map[string]*isa.Program]

// New creates a cache holding at most capacity builds; capacity < 1 means
// unbounded.
func New(capacity int) *Cache {
	return cas.New[string, map[string]*isa.Program](int64(capacity))
}

var (
	defaultOnce  sync.Once
	defaultCache *Cache
)

// Default returns the process-wide shared cache every run uses unless a
// RunConfig overrides or disables it.
func Default() *Cache {
	defaultOnce.Do(func() { defaultCache = New(DefaultCapacity) })
	return defaultCache
}

// GetOrCompile returns the phase map cached in c under key, building it with
// build on a miss; hit reports that the lookup was served from the cache
// (including waiting on a concurrent build of the same key) rather than
// compiled by this caller, which observability layers use to attribute
// per-run sim.progcache.hit/miss counters. Failed builds are not cached. The
// returned map and its programs are shared — callers must treat them as
// immutable.
func GetOrCompile(c *Cache, key string, build func() (map[string]*isa.Program, error)) (progs map[string]*isa.Program, hit bool, err error) {
	return c.Do(context.Background(), key, 1, build)
}
