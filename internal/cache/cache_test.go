package cache

import (
	"testing"
	"testing/quick"
)

func smallCache(ways int, writeback bool) *Cache {
	return New(Config{
		Name:      "test",
		SizeBytes: 4 * ways * 64, // 4 sets
		LineBytes: 64,
		Ways:      ways,
		WriteBack: writeback,
	})
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "line", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "ways", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "size", SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{Name: "sets", SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %q: want panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := New(Config{Name: "g", SizeBytes: 32 << 10, LineBytes: 32, Ways: 16})
	if c.SizeBytes() != 32<<10 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
	if c.LineBytes() != 32 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := smallCache(2, false)
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1038, false); !r.Hit {
		t.Error("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("counters hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(2, false)                                 // 4 sets, 2 ways, 64B lines; set stride = 256B
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200) // same set
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	r := c.Access(d, false)
	if r.Hit {
		t.Fatal("conflict access hit")
	}
	if !r.VictimValid || r.Victim != b {
		t.Errorf("victim = %#x (valid=%v), want %#x", r.Victim, r.VictimValid, b)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Error("LRU kept wrong line")
	}
}

func TestWritebackDirtyVictim(t *testing.T) {
	c := smallCache(1, true) // direct-mapped, write-back
	c.Access(0x0000, true)   // dirty
	r := c.Access(0x0100, false)
	if !r.VictimDirty {
		t.Error("dirty victim not flagged")
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Writebacks)
	}
	// Clean line eviction must not write back.
	r = c.Access(0x0200, false)
	if r.VictimDirty {
		t.Error("clean victim flagged dirty")
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d after clean eviction, want 1", c.Writebacks)
	}
}

func TestWriteThroughNeverWritesBack(t *testing.T) {
	c := smallCache(1, false)
	for i := uint64(0); i < 64; i++ {
		c.Access(i*0x100, true)
	}
	if c.Writebacks != 0 {
		t.Errorf("write-through cache produced %d writebacks", c.Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := smallCache(1, true)
	c.Access(0x0000, false) // clean fill
	c.Access(0x0000, true)  // write hit dirties it
	if r := c.Access(0x0100, false); !r.VictimDirty {
		t.Error("write hit did not dirty the line")
	}
}

// Property: hits+misses equals the access count, and the number of distinct
// resident lines never exceeds the capacity in lines.
func TestAccessCountInvariant(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := smallCache(4, true)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		return c.Hits+c.Misses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits entirely in the cache has only
// compulsory misses on repeated traversal.
func TestFittingWorkingSetOnlyCompulsoryMisses(t *testing.T) {
	c := New(Config{Name: "fit", SizeBytes: 8 << 10, LineBytes: 64, Ways: 8})
	lines := uint64(c.SizeBytes() / c.LineBytes())
	for pass := 0; pass < 5; pass++ {
		for l := uint64(0); l < lines; l++ {
			c.Access(l*64, false)
		}
	}
	if c.Misses != lines {
		t.Errorf("misses = %d, want only %d compulsory", c.Misses, lines)
	}
}

// Property: a cyclic working set larger than a direct-mapped cache misses on
// every access (LRU worst case).
func TestThrashingWorkingSetAlwaysMisses(t *testing.T) {
	c := New(Config{Name: "thrash", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2})
	lines := uint64(c.SizeBytes()/c.LineBytes()) * 2
	var accesses uint64
	for pass := 0; pass < 4; pass++ {
		for l := uint64(0); l < lines; l++ {
			c.Access(l*64, false)
			accesses++
		}
	}
	if c.Misses != accesses {
		t.Errorf("misses = %d of %d accesses; cyclic over-capacity scan must always miss under LRU", c.Misses, accesses)
	}
}

func TestPrefetcherStreamDetection(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{NumStreams: 4, BufferLines: 8, Depth: 2})
	// First access starts a stream; second sequential access confirms it.
	hit, want := p.Access(100, nil)
	if hit || want != nil {
		t.Fatalf("cold access: hit=%v want=%v", hit, want)
	}
	hit, want = p.Access(101, make([]uint64, 0, p.Depth()))
	if hit {
		t.Error("unbuffered access reported hit")
	}
	if len(want) != 2 || want[0] != 102 || want[1] != 103 {
		t.Fatalf("confirmed stream prefetch = %v, want [102 103]", want)
	}
	p.Fill(102)
	p.Fill(103)
	hit, _ = p.Access(102, nil)
	if !hit {
		t.Error("prefetched line missed")
	}
	if p.Hits != 1 {
		t.Errorf("Hits = %d, want 1", p.Hits)
	}
}

func TestPrefetcherBufferEviction(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{NumStreams: 2, BufferLines: 2, Depth: 1})
	p.Fill(1)
	p.Fill(2)
	p.Fill(3) // evicts 1
	if p.Buffered() != 2 {
		t.Fatalf("Buffered = %d, want 2", p.Buffered())
	}
	if hit, _ := p.Access(1, nil); hit {
		t.Error("evicted line still buffered")
	}
	if hit, _ := p.Access(3, nil); !hit {
		t.Error("resident line missed")
	}
}

func TestPrefetcherRandomAccessesNeverConfirm(t *testing.T) {
	p := NewPrefetcher(DefaultPrefetchConfig())
	// Widely separated lines never form a stream.
	for i := uint64(0); i < 100; i++ {
		if _, want := p.Access(i*1000, nil); want != nil {
			t.Fatalf("random pattern triggered prefetch of %v", want)
		}
	}
	if p.Issued != 0 {
		t.Errorf("Issued = %d on random pattern, want 0", p.Issued)
	}
}

func TestPrefetcherMultipleConcurrentStreams(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{NumStreams: 4, BufferLines: 32, Depth: 1})
	// Interleave three streams; all should be tracked.
	bases := []uint64{0, 10000, 20000}
	for step := uint64(0); step < 20; step++ {
		for _, b := range bases {
			_, want := p.Access(b+step, nil)
			if step > 0 && len(want) == 0 {
				t.Fatalf("stream at base %d step %d not confirmed", b, step)
			}
			for _, l := range want {
				p.Fill(l)
			}
		}
	}
	if p.Hits == 0 {
		t.Error("no prefetch-buffer hits on streaming pattern")
	}
}

func TestPrefetcherPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on zero-stream prefetcher")
		}
	}()
	NewPrefetcher(PrefetchConfig{NumStreams: 0, BufferLines: 1, Depth: 1})
}
