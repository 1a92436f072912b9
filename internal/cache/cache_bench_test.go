package cache

import "testing"

// Microbenchmarks of the simulator's hottest path: one Access per
// simulated memory reference.

func benchmarkAccess(b *testing.B, cfg Config, span uint64, stride uint64) {
	c := New(cfg)
	b.ReportAllocs()
	var addr uint64
	for i := 0; i < b.N; i++ {
		c.Access(addr, i&7 == 0)
		addr = (addr + stride) % span
	}
}

func BenchmarkL1HitRoundRobin(b *testing.B) {
	benchmarkAccess(b, Config{
		Name: "l1", SizeBytes: 32 << 10, LineBytes: 128, Ways: 16,
		WriteBack: true, Replacement: ReplaceRoundRobin,
	}, 16<<10, 8) // fits: pure hits
}

func BenchmarkL1MissRoundRobin(b *testing.B) {
	benchmarkAccess(b, Config{
		Name: "l1", SizeBytes: 32 << 10, LineBytes: 128, Ways: 16,
		WriteBack: true, Replacement: ReplaceRoundRobin,
	}, 8<<20, 128) // streams: every line a miss
}

func BenchmarkL3HitLRU(b *testing.B) {
	benchmarkAccess(b, Config{
		Name: "l3", SizeBytes: 4 << 20, LineBytes: 128, Ways: 8,
		WriteBack: true,
	}, 2<<20, 8)
}

func BenchmarkL3MissLRU(b *testing.B) {
	benchmarkAccess(b, Config{
		Name: "l3", SizeBytes: 4 << 20, LineBytes: 128, Ways: 8,
		WriteBack: true,
	}, 64<<20, 128)
}

// BenchmarkCacheAccess pins the cost of the two Access outcomes in
// isolation: a pure-hit loop (tag match, fast path) and a pure-miss loop
// (victim selection and tag install) on the round-robin L1 geometry.
func BenchmarkCacheAccess(b *testing.B) {
	l1 := Config{
		Name: "l1", SizeBytes: 32 << 10, LineBytes: 128, Ways: 16,
		WriteBack: true, Replacement: ReplaceRoundRobin,
	}
	b.Run("hit", func(b *testing.B) {
		c := New(l1)
		c.Access(0, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Access(0, false)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := New(l1)
		b.ReportAllocs()
		var addr uint64
		for i := 0; i < b.N; i++ {
			c.Access(addr, false)
			addr += 128 // next line: conflict-misses forever
		}
	})
}

func BenchmarkPrefetcherStream(b *testing.B) {
	p := NewPrefetcher(DefaultPrefetchConfig())
	want := make([]uint64, 0, p.Depth())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, want = p.Access(uint64(i), want)
		for _, l := range want {
			p.Fill(l)
		}
	}
}

func BenchmarkPrefetcherRandom(b *testing.B) {
	p := NewPrefetcher(DefaultPrefetchConfig())
	want := make([]uint64, 0, p.Depth())
	b.ReportAllocs()
	x := uint64(12345)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		_, want = p.Access(x%(1<<20), want)
	}
}
