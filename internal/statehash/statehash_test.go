package statehash

import "testing"

// TestWordsMatchesWord pins the batching contract: Words must produce
// exactly the digest of the equivalent Word-at-a-time stream, at every
// alignment and split.
func TestWordsMatchesWord(t *testing.T) {
	stream := make([]uint64, 257)
	for i := range stream {
		stream[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	for split := 0; split <= len(stream); split++ {
		a := New()
		for _, w := range stream {
			a.Word(w)
		}
		b := New()
		b.Words(stream[:split])
		b.Words(stream[split:])
		if a.Sum() != b.Sum() {
			t.Fatalf("split %d: Words digest diverges from Word digest", split)
		}
	}
}

// TestSensitivity checks that single-word and length perturbations change
// the digest.
func TestSensitivity(t *testing.T) {
	base := make([]uint64, 64)
	ref := Sum128(base)
	if ref == (Digest{}) {
		t.Fatal("zero digest for zero stream")
	}
	for i := range base {
		mut := append([]uint64(nil), base...)
		mut[i] = 1
		if Sum128(mut) == ref {
			t.Fatalf("flipping word %d did not change digest", i)
		}
	}
	if Sum128(base[:63]) == ref {
		t.Fatal("length change did not change digest")
	}
	if Sum128(append(append([]uint64(nil), base...), 0)) == ref {
		t.Fatal("trailing zero did not change digest")
	}
}

// TestResetAndIncremental pins Reset and the Sum-is-non-consuming
// contract.
func TestResetAndIncremental(t *testing.T) {
	h := New()
	h.Words([]uint64{1, 2, 3})
	mid := h.Sum()
	if again := h.Sum(); again != mid {
		t.Fatal("Sum consumed state")
	}
	h.Word(4)
	if h.Sum() == mid {
		t.Fatal("Word after Sum had no effect")
	}
	h.Reset()
	h.Words([]uint64{1, 2, 3})
	if h.Sum() != mid {
		t.Fatal("Reset did not restore the initial state")
	}
}

// part is a component with one field of every walked kind.
type part struct {
	u   uint64
	ws  []uint64
	i   int
	i64 int64
	i32 int32
	// sum is derived from ws; a restoring walk rebuilds it.
	sum uint64
}

func (p *part) State(w *Walk) {
	w.U64(&p.u)
	w.Words(p.ws)
	w.Int(&p.i)
	w.I64(&p.i64)
	w.I32(&p.i32)
	if w.Restoring() {
		p.sum = p.ws[0] + p.ws[1]
	}
}

// TestWalkRoundTrip pins the three passes of one field list: Len counts
// what Read writes, negative integers survive the round trip, and Write
// restores every field and nothing beyond the window.
func TestWalkRoundTrip(t *testing.T) {
	src := &part{u: 7, ws: []uint64{1, 2}, i: -3, i64: -4, i32: -5}
	n := Len(src)
	if n != 6 {
		t.Fatalf("Len = %d, want 6", n)
	}
	win := make([]uint64, n+1)
	win[n] = 99
	if got := Read(src, win); got != n || win[n] != 99 {
		t.Fatalf("Read wrote %d words (sentinel %d), want %d", got, win[n], n)
	}
	if win[5] != uint64(uint32(0xfffffffb)) {
		t.Errorf("int32 -5 walked as %#x, want it zero-extended", win[5])
	}
	dst := &part{ws: make([]uint64, 2)}
	if got := Write(dst, win); got != n {
		t.Fatalf("Write consumed %d words, want %d", got, n)
	}
	want := *src
	want.sum = 3
	if dst.u != want.u || dst.ws[0] != 1 || dst.ws[1] != 2 || dst.i != want.i ||
		dst.i64 != want.i64 || dst.i32 != want.i32 || dst.sum != want.sum {
		t.Errorf("restored %+v, want %+v", *dst, want)
	}
}
