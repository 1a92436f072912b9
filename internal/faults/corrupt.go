package faults

// The byte corruptor: deterministic mutation of artifact bytes on the write
// path, modelling torn writes and bit rot. It is format-agnostic — callers
// pass the field boundaries of their format (bgpctr.FieldBoundaries for
// counter dumps) so truncations land on structurally interesting offsets —
// and it guarantees the mutated bytes differ from the input, so a CRC'd
// format must reject every output.

import (
	"hash/fnv"

	"bgpsim/internal/rng"
)

// hashKey folds a key into a stream id, so per-key streams depend only on
// (seed, key) and never on arming or call order.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// corruptOnce applies one mutation drawn from src: a single bit flip, a
// truncation at a field boundary (or an arbitrary offset when no boundaries
// are given), or a bit flip confined to the trailing 4-byte checksum word.
func corruptOnce(src *rng.Source, b []byte, boundaries []int) []byte {
	if len(b) == 0 {
		return b
	}
	switch src.Intn(3) {
	case 0: // bit flip anywhere in the file
		b[src.Intn(len(b))] ^= byte(1) << src.Intn(8)
	case 1: // truncation at a field boundary
		cut := src.Intn(len(b))
		if len(boundaries) > 0 {
			cut = boundaries[src.Intn(len(boundaries))]
		}
		if cut < len(b) {
			b = b[:cut]
		}
	case 2: // checksum-only flip: payload intact, CRC word wrong
		if len(b) >= 4 {
			b[len(b)-1-src.Intn(4)] ^= byte(1) << src.Intn(8)
		} else {
			b[src.Intn(len(b))] ^= byte(1) << src.Intn(8)
		}
	}
	return b
}

// Corrupt returns a mutated copy of b, seeded by (injector seed, key): one
// deterministic mutation, guaranteed to differ from the input. boundaries
// are candidate truncation offsets (pass the format's field boundaries);
// they must be less than len(b). A nil injector returns b untouched.
func (in *Injector) Corrupt(key string, b []byte, boundaries []int) []byte {
	if in == nil || len(b) == 0 {
		return b
	}
	src := rng.New(in.seed).Derive(hashKey("corrupt/" + key))
	out := corruptOnce(src, append([]byte(nil), b...), boundaries)
	if len(out) == len(b) && string(out) == string(b) {
		// The drawn mutation was a no-op (cannot happen with the ops
		// above, but keep the contract independent of them).
		out[len(out)-1] ^= 0x01
	}
	return out
}

// Corpus generates a deterministic corruption corpus for blob: a truncation
// at every field boundary, a bit flip in the byte following every boundary
// (one flip per field), flips of each checksum byte, and extra seeded random
// mutations. Every returned slice differs from blob; none aliases it. The
// dump decoder's fuzz and table tests feed on this.
func Corpus(seed uint64, blob []byte, boundaries []int, extra int) [][]byte {
	if len(blob) == 0 {
		return nil
	}
	var out [][]byte
	add := func(b []byte) {
		if len(b) != len(blob) || string(b) != string(blob) {
			out = append(out, b)
		}
	}
	clone := func() []byte { return append([]byte(nil), blob...) }

	// Truncation at every field boundary.
	for _, cut := range boundaries {
		if cut >= 0 && cut < len(blob) {
			add(clone()[:cut])
		}
	}
	// One bit flip per field (the byte right after each boundary, plus
	// offset zero for the first field).
	for _, off := range append([]int{0}, boundaries...) {
		if off >= 0 && off < len(blob) {
			b := clone()
			b[off] ^= 0x80
			add(b)
		}
	}
	// Checksum-only flips: every byte of the trailing CRC word.
	if len(blob) >= 4 {
		for i := 1; i <= 4; i++ {
			b := clone()
			b[len(b)-i] ^= 0x01
			add(b)
		}
	}
	// Seeded random mutations on top.
	src := rng.New(seed).Derive(hashKey("corpus"))
	for i := 0; i < extra; i++ {
		add(corruptOnce(src, clone(), boundaries))
	}
	return out
}
