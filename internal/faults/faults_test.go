package faults

import (
	"bytes"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if k := in.Next("run0000"); k != None {
		t.Errorf("nil injector returned %v", k)
	}
	in.Arm("run0000", Panic) // must not panic
	b := []byte{1, 2, 3}
	if got := in.Corrupt("k", b, nil); !bytes.Equal(got, b) {
		t.Errorf("nil injector corrupted bytes: %v", got)
	}
	if lg := in.Log(); lg != nil {
		t.Errorf("nil injector has a log: %v", lg)
	}
}

func TestNextConsumesArmedSchedule(t *testing.T) {
	in := New(1)
	in.Arm("a", CorruptDump, Panic)
	in.Arm("b", Stall)
	want := []struct {
		key  string
		kind Kind
	}{
		{"a", CorruptDump}, {"b", Stall}, {"a", Panic}, {"a", None}, {"b", None}, {"c", None},
	}
	for i, w := range want {
		if got := in.Next(w.key); got != w.kind {
			t.Errorf("draw %d: Next(%s) = %v, want %v", i, w.key, got, w.kind)
		}
	}
	lg := in.Log()
	if len(lg) != 3 {
		t.Fatalf("log has %d events, want 3: %v", len(lg), lg)
	}
	if lg[2] != (Event{Key: "a", Attempt: 1, Kind: Panic}) {
		t.Errorf("log[2] = %+v", lg[2])
	}
}

func TestCorruptIsDeterministicAndAlwaysMutates(t *testing.T) {
	blob := bytes.Repeat([]byte{0xAB, 0xCD}, 64)
	boundaries := []int{4, 16, 60}
	for _, key := range []string{"run0000/node0000.bgpc", "run0001/node0002.bgpc", "z"} {
		a := New(9).Corrupt(key, blob, boundaries)
		b := New(9).Corrupt(key, blob, boundaries)
		if !bytes.Equal(a, b) {
			t.Errorf("key %s: corruption not deterministic", key)
		}
		if bytes.Equal(a, blob) {
			t.Errorf("key %s: corruption returned the input unchanged", key)
		}
		if len(a) > len(blob) {
			t.Errorf("key %s: corruption grew the blob", key)
		}
	}
	// The input must never be mutated in place.
	want := bytes.Repeat([]byte{0xAB, 0xCD}, 64)
	if !bytes.Equal(blob, want) {
		t.Error("Corrupt mutated its input slice")
	}
}

func TestCorpusCoversBoundariesAndCRC(t *testing.T) {
	blob := make([]byte, 40)
	for i := range blob {
		blob[i] = byte(i)
	}
	boundaries := []int{4, 8, 20, 36}
	corpus := Corpus(3, blob, boundaries, 8)
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	truncated := make(map[int]bool)
	for _, m := range corpus {
		if bytes.Equal(m, blob) {
			t.Error("corpus contains the pristine blob")
		}
		if len(m) < len(blob) {
			truncated[len(m)] = true
		}
	}
	for _, cut := range boundaries {
		if !truncated[cut] {
			t.Errorf("no truncation at boundary %d", cut)
		}
	}
	// Deterministic: same inputs, same corpus.
	again := Corpus(3, blob, boundaries, 8)
	if len(again) != len(corpus) {
		t.Fatalf("corpus size changed across calls: %d vs %d", len(again), len(corpus))
	}
	for i := range corpus {
		if !bytes.Equal(corpus[i], again[i]) {
			t.Errorf("corpus entry %d differs across calls", i)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Panic: "panic", Stall: "stall",
		CorruptDump: "corrupt-dump", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
