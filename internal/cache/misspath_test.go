package cache

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bgpsim/internal/statehash"
)

// Property tests for the two shortcuts on the L1-miss path: the stream
// detector's O(1) steal victim and the LRU miss's shift promotion. Both must
// be indistinguishable from the searches they replace.

// refDetector is the stream detector written the slow, obvious way: plain
// in-order scans over plain per-engine fields, no packed screens, no masks.
// It is the oracle for the engine a steal picks (first invalid engine, else
// the first with the fewest hits) and, because it renders the same state
// window, for everything else Observe does.
type refDetector struct {
	maxDelta int64
	depth    int
	e        []refEngine
}

type refEngine struct {
	last          uint64
	delta         int64
	nextKey       uint64
	hits          int32
	valid, locked bool
}

func (r *refDetector) ahead(last uint64, delta int64, staged func(uint64) bool) []uint64 {
	var out []uint64
	for k := 1; k <= r.depth; k++ {
		next := int64(last) + delta*int64(k)
		if next < 0 {
			break
		}
		if !staged(uint64(next)) {
			out = append(out, uint64(next))
		}
	}
	return out
}

// What an observation did to the reference: followed a stream, or took an
// engine — a never-used one, one with no hits (the detector's mask finds
// it), or the fewest-hits one when all have hits (only a scan finds it).
const (
	refFollowed = iota
	refSeeded
	refStoleZeroHit
	refStoleByScan
)

func (r *refDetector) observe(line uint64, staged func(uint64) bool) (want []uint64, did int) {
	for i := range r.e {
		if e := &r.e[i]; e.locked && e.nextKey == line+1 {
			e.last = line
			e.hits++
			e.nextKey = uint64(int64(line)+e.delta) + 1
			return r.ahead(line, e.delta, staged), refFollowed
		}
	}
	for i := range r.e {
		e := &r.e[i]
		if !e.valid || e.locked {
			continue
		}
		if dd := int64(line) - int64(e.last); dd != 0 && dd >= -r.maxDelta && dd <= r.maxDelta {
			e.delta, e.locked, e.last = dd, true, line
			e.nextKey = uint64(int64(line)+dd) + 1
			return r.ahead(line, dd, staged), refFollowed
		}
	}
	victim, did := 0, refStoleZeroHit
	for i := range r.e {
		if !r.e[i].valid {
			r.e[i] = refEngine{last: line, valid: true}
			return nil, refSeeded
		}
		if r.e[i].hits < r.e[victim].hits {
			victim = i
		}
	}
	if r.e[victim].hits > 0 {
		did = refStoleByScan
	}
	r.e[victim] = refEngine{last: line, valid: true}
	return nil, did
}

// window renders the reference in StreamDetector.State's window layout.
func (r *refDetector) window() []uint64 {
	n := len(r.e)
	w := make([]uint64, 0, 4*n+2*((n+7)/8)+4)
	lastLow := make([]uint64, (n+7)/8)
	nextKeyLow := make([]uint64, (n+7)/8)
	var valid, conf, nconf, nzHits uint64
	for i, e := range r.e {
		w = append(w, e.last, uint64(e.delta), e.nextKey, uint64(uint32(e.hits)))
		lastLow[i>>3] |= uint64(uint8(e.last)) << (uint(i&7) * 8)
		nextKeyLow[i>>3] |= uint64(uint8(e.nextKey)) << (uint(i&7) * 8)
		if e.valid {
			valid |= 1 << uint(i)
		}
		if e.locked {
			conf |= 1 << uint(i)
			nconf++
		}
		if e.hits > 0 {
			nzHits++
		}
	}
	w = append(w, lastLow...)
	w = append(w, nextKeyLow...)
	return append(w, valid, conf, nconf, nzHits)
}

func readDetector(d *StreamDetector) []uint64 {
	w := make([]uint64, statehash.Len(d))
	statehash.Read(d, w)
	return w
}

// wantZeroHits is the mask a detector must hold for the hit counts it has.
func wantZeroHits(d *StreamDetector) uint64 {
	var m uint64
	for i := range d.s {
		if d.s[i].hits == 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

func TestDetectorVictimMatchesScan(t *testing.T) {
	const steps = 120_000
	staged := func(l uint64) bool { return l%7 == 0 }
	for _, n := range []int{1, 4, 15, 64} {
		for _, maxDelta := range []int64{DefaultMaxDelta, 16} { // the L2's SWAR screen; the L3 engine's plain walk
			rnd := rand.New(rand.NewSource(int64(n)*100 + maxDelta))
			d := NewStreamDetector(n, maxDelta, 2)
			ref := &refDetector{maxDelta: maxDelta, depth: 2, e: make([]refEngine, n)}
			dst := make([]uint64, 0, d.Depth())

			// Traffic: cursors walking fixed strides, restarted now and
			// then, mixed with uniformly random lines, in four repeating
			// phases. The first is lockable strides only, on fewer cursors
			// than engines and three steps per turn (seed, lock, follow):
			// stranded engines keep their hit counts, so soon every engine
			// has hits and only the scan can pick a victim. The others add
			// strides one past what the engines follow (and zero), more
			// cursors than engines, and 2, 30 and 90 % random lines, which
			// keep zero-hit engines around for the mask.
			type cursor struct {
				line   uint64
				stride int64
			}
			pool := make([]cursor, n+n/2+1)
			c := &pool[0]
			phase := 0
			restart := func(c *cursor) {
				c.line = 1<<20 + uint64(rnd.Intn(1<<24))
				if c.stride = int64(rnd.Intn(int(2*maxDelta+5))) - (maxDelta + 2); phase == 0 {
					c.stride = int64(1+rnd.Intn(int(maxDelta))) * int64(1-2*rnd.Intn(2))
				}
			}
			var did [refStoleByScan + 1]int
			for step := 0; step < steps; step++ {
				phase = step / 4000 % 4
				active, randomPct := pool, []int{0, 2, 30, 90}[phase]
				if phase == 0 {
					active = pool[:n/2+1]
				}
				if step%4000 == 0 {
					for i := range pool {
						restart(&pool[i])
					}
				}
				var line uint64
				switch p := rnd.Intn(100); {
				case p < randomPct:
					line = uint64(rnd.Intn(1 << 26))
				case phase == 0 && step%3 != 0:
					c.line = uint64(int64(c.line) + c.stride)
					line = c.line
				default:
					c = &active[rnd.Intn(len(active))]
					if c.line = uint64(int64(c.line) + c.stride); p < randomPct+10 {
						restart(c)
					}
					line = c.line
				}

				wantProp, what := ref.observe(line, staged)
				did[what]++
				gotProp := d.Observe(line, staged, dst)
				if !slices.Equal(gotProp, wantProp) {
					t.Fatalf("n=%d maxDelta=%d step %d line %d: proposals %v, reference %v", n, maxDelta, step, line, gotProp, wantProp)
				}
				got, want := readDetector(d), ref.window()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d maxDelta=%d step %d line %d: state word %d = %#x, reference %#x", n, maxDelta, step, line, i, got[i], want[i])
					}
				}
				if d.zeroHits != wantZeroHits(d) {
					t.Fatalf("n=%d maxDelta=%d step %d: zero-hits mask %#x, hit counts say %#x", n, maxDelta, step, d.zeroHits, wantZeroHits(d))
				}

				switch {
				case step%1500 == 1499:
					// Continue on a detector restored from the window: the
					// mask is not in it, so the restoring walk must have
					// rebuilt it or the next steals diverge from the reference.
					fresh := NewStreamDetector(n, maxDelta, 2)
					statehash.Write(fresh, got)
					if fresh.zeroHits != d.zeroHits {
						t.Fatalf("n=%d maxDelta=%d step %d: restore rebuilt zero-hits mask %#x, want %#x", n, maxDelta, step, fresh.zeroHits, d.zeroHits)
					}
					d = fresh
				case step == steps/2:
					// Start over on a freshly built detector.
					d = NewStreamDetector(n, maxDelta, 2)
					ref.e = make([]refEngine, n)
				}
			}
			if did[refStoleByScan] == 0 || did[refStoleZeroHit] == 0 {
				t.Errorf("n=%d maxDelta=%d: %d scan steals, %d zero-hit steals; the traffic must exercise both",
					n, maxDelta, did[refStoleByScan], did[refStoleZeroHit])
			}
			t.Logf("n=%d maxDelta=%d: followed %d, seeded %d, zero-hit steals %d, scan steals %d",
				n, maxDelta, did[refFollowed], did[refSeeded], did[refStoleZeroHit], did[refStoleByScan])
		}
	}
}

func TestLRUVictimPromotion(t *testing.T) {
	for _, ways := range []int{2, 8, 12, 16} {
		cfg := Config{Name: "lru", SizeBytes: 4 * ways * 64, LineBytes: 64, Ways: ways}
		ref, got := New(cfg), New(cfg)
		rnd := rand.New(rand.NewSource(int64(ways)))
		b := 2 * ref.setWords // any set window
		for iter := 0; iter < 20_000; iter++ {
			if iter%(2*ways) == 0 {
				// A fresh random recency order; the iterations in between
				// keep rotating the one they are handed.
				var ord uint64
				for p, w := range rnd.Perm(ways) {
					ord |= uint64(w) << (4 * uint(p))
				}
				ref.slab[b+1], got.slab[b+1] = ord, ord
			}
			victim := int(ref.slab[b+1] >> (4 * uint(ways-1)) & 15)
			ref.promote(b, victim)
			if w := got.promoteVictim(b); w != victim {
				t.Fatalf("ways=%d iter %d: victim way %d, want %d", ways, iter, w, victim)
			}
			if got.slab[b+1] != ref.slab[b+1] {
				t.Fatalf("ways=%d iter %d: recency word %#x, promote gives %#x", ways, iter, got.slab[b+1], ref.slab[b+1])
			}
			if bits.Len64(got.slab[b+1]) > 4*ways {
				t.Fatalf("ways=%d iter %d: recency word %#x spills past %d nibbles", ways, iter, got.slab[b+1], ways)
			}
		}
	}
}
