// Package statehash is the epoch memo's state capture: the Walk through
// which every stateful component of the simulated machine lists its mutable
// fields once — one State method serving Len, Read and Write over a flat
// []uint64 state window — and a fast, non-cryptographic 128-bit digest over
// such windows. The epoch memo (internal/mpi) flattens and fingerprints the
// whole machine — megabytes of cache slab words — at epoch boundaries, so
// both must move at memory speed; the digest only has to tell one run's
// state from another's at the same cut of the same run identity, so the
// collision budget of a 128-bit mix over structured state is ample.
//
// The digest is two independent multiply-xor lanes (wyhash-style stepping)
// over alternating words, finalized with an avalanche mix. It is a pure
// function of the word sequence: identical state flattens to identical
// digests on every host.
package statehash

// Digest is a 128-bit state fingerprint.
type Digest struct {
	Lo, Hi uint64
}

const (
	seedLo = 0xa0761d6478bd642f
	seedHi = 0xe7037ed1a0b428db
	mulA   = 0x8ebc6af09c88c6e3
	mulB   = 0x589965cc75374cc3
)

// mix is the splitmix64 finalizer: full avalanche on a 64-bit word.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hasher accumulates words into a running 128-bit state.
type Hasher struct {
	lo, hi uint64
	n      uint64
}

// New returns a hasher seeded for a fresh stream.
func New() *Hasher {
	return &Hasher{lo: seedLo, hi: seedHi}
}

// Reset returns the hasher to its initial state.
func (h *Hasher) Reset() {
	h.lo, h.hi, h.n = seedLo, seedHi, 0
}

// Word folds one word into the state.
func (h *Hasher) Word(w uint64) {
	if h.n&1 == 0 {
		h.lo = (h.lo ^ w) * mulA
	} else {
		h.hi = (h.hi ^ w) * mulB
	}
	h.n++
}

// Words folds a word slice into the state. The result is identical to
// calling Word per element; the loop body is unrolled two wide so both
// lanes advance per iteration.
func (h *Hasher) Words(ws []uint64) {
	i := 0
	if h.n&1 == 1 && len(ws) > 0 {
		h.hi = (h.hi ^ ws[0]) * mulB
		h.n++
		i++
	}
	lo, hi := h.lo, h.hi
	j := i
	for ; j+1 < len(ws); j += 2 {
		lo = (lo ^ ws[j]) * mulA
		hi = (hi ^ ws[j+1]) * mulB
	}
	h.lo, h.hi = lo, hi
	h.n += uint64(j - i)
	if j < len(ws) {
		h.Word(ws[j])
	}
}

// Sum finalizes the current state into a digest without consuming the
// hasher: further words may still be folded.
func (h *Hasher) Sum() Digest {
	return Digest{
		Lo: mix(h.lo ^ h.n),
		Hi: mix(h.hi ^ mix(h.lo) ^ (h.n * mulA)),
	}
}

// Sum128 digests one word slice.
func Sum128(ws []uint64) Digest {
	h := New()
	h.Words(ws)
	return h.Sum()
}
