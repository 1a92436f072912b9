package main

import (
	"bytes"
	"math"
	"os"
	"testing"

	"bgpsim/internal/server"
)

func testSequence(t *testing.T, seed int64, n int) *sequence {
	t.Helper()
	yaml, err := os.ReadFile("../" + hplPath)
	if err != nil {
		t.Fatal(err)
	}
	return newSequence(seed, n, string(yaml))
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := testSequence(t, 1, 4000), testSequence(t, 1, 4000), testSequence(t, 2, 4000)
	if a.hash() != b.hash() {
		t.Error("the same seed gave two different sequences")
	}
	if a.hash() == c.hash() {
		t.Error("two seeds gave the same sequence")
	}
}

func TestSequenceConstruction(t *testing.T) {
	q := testSequence(t, 7, 4000)
	if len(q.Slots) < 4000 {
		t.Fatalf("%d slots, want at least 4000", len(q.Slots))
	}
	var kinds [5]int
	firstAt := map[int]int{}   // config -> slot that introduced it
	asked := map[[2]int]bool{} // (config, tenant) pairs posted so far
	seen := map[runConfig]bool{}
	for i, s := range q.Slots {
		kinds[s.Kind]++
		key := [2]int{s.Config, s.Tenant}
		switch s.Kind {
		case kindFresh, kindPairA:
			if _, dup := firstAt[s.Config]; dup {
				t.Fatalf("slot %d: fresh configuration %d was issued before", i, s.Config)
			}
			if seen[q.Configs[s.Config]] {
				t.Fatalf("slot %d: configuration %+v drawn twice", i, q.Configs[s.Config])
			}
			seen[q.Configs[s.Config]] = true
			firstAt[s.Config] = i
		case kindPairB:
			prev := q.Slots[i-1]
			if prev.Kind != kindPairA || prev.Config != s.Config || prev.Tenant == s.Tenant {
				t.Fatalf("slot %d: pair half %+v does not follow its other half %+v", i, s, prev)
			}
		case kindRepeat:
			at, ok := firstAt[s.Config]
			if !ok || i-at < reuseLag {
				t.Fatalf("slot %d: repeat of a configuration issued at slot %d", i, at)
			}
			if asked[key] {
				t.Fatalf("slot %d: repeat by a tenant that already asked", i)
			}
		case kindResubmit:
			if !asked[key] {
				t.Fatalf("slot %d: resubmit of a job never posted", i)
			}
		}
		asked[key] = true
	}
	n := float64(len(q.Slots))
	for _, c := range []struct {
		name  string
		count int
		share float64
	}{
		{"fresh", kinds[kindFresh], 0.25},
		{"repeat", kinds[kindRepeat], 0.50},
		{"resubmit", kinds[kindResubmit], 0.10},
		{"pair", kinds[kindPairA] + kinds[kindPairB], 0.15},
	} {
		if got := float64(c.count) / n; math.Abs(got-c.share) > 0.01 {
			t.Errorf("%s share = %.4f, want %.2f within 0.01", c.name, got, c.share)
		}
	}
	var classW int
	for _, c := range q.Configs {
		if c.Class == "W" {
			classW++
		}
	}
	if got := float64(classW) / float64(len(q.Configs)); math.Abs(got-0.2) > 0.01 {
		t.Errorf("class W share = %.4f, want 0.20 within 0.01", got)
	}
}

// Every kind of body the generator renders must be a job bgpd accepts.
func TestSequenceBodiesDecode(t *testing.T) {
	q := testSequence(t, 3, 400)
	hpl := false
	for i, s := range q.Slots {
		c := q.Configs[s.Config]
		if c.Kernel == "hpl" {
			if hpl {
				continue // decoding the YAML is slow; one by-value job is enough
			}
			hpl = true
		}
		spec, cfgs, err := server.DecodeJobSpec(bytes.NewReader(q.body(s)))
		if err != nil {
			t.Fatalf("slot %d (%+v): %v", i, c, err)
		}
		if len(cfgs) != 1 || spec.Tenant == "" {
			t.Fatalf("slot %d: decoded %d runs, tenant %q", i, len(cfgs), spec.Tenant)
		}
	}
	if !hpl {
		t.Error("400 slots drew no by-value HPL job")
	}
}
