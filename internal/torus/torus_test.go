package torus

import (
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	n := New(4, 4, 2, DefaultConfig())
	f := func(id uint8) bool {
		node := int(id) % n.NumNodes()
		x, y, z := n.Coord(node)
		return n.NodeAt(x, y, z) == node
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopCountSymmetric(t *testing.T) {
	n := New(4, 4, 4, DefaultConfig())
	f := func(a, b uint8) bool {
		na, nb := int(a)%n.NumNodes(), int(b)%n.NumNodes()
		return n.HopCount(na, nb) == n.HopCount(nb, na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopCountWrapAround(t *testing.T) {
	n := New(8, 1, 1, DefaultConfig())
	// 0 → 7 is one hop the short way around the ring.
	if got := n.HopCount(0, 7); got != 1 {
		t.Errorf("wrap hop count = %d, want 1", got)
	}
	if got := n.HopCount(0, 4); got != 4 {
		t.Errorf("antipodal hop count = %d, want 4", got)
	}
}

func TestHopCountSelfIsZero(t *testing.T) {
	n := New(3, 3, 3, DefaultConfig())
	for id := 0; id < n.NumNodes(); id++ {
		if n.HopCount(id, id) != 0 {
			t.Fatalf("node %d: self distance nonzero", id)
		}
	}
}

func TestHopCountTriangleInequality(t *testing.T) {
	n := New(4, 2, 3, DefaultConfig())
	f := func(a, b, c uint8) bool {
		na, nb, nc := int(a)%n.NumNodes(), int(b)%n.NumNodes(), int(c)%n.NumNodes()
		return n.HopCount(na, nc) <= n.HopCount(na, nb)+n.HopCount(nb, nc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferCounters(t *testing.T) {
	n := New(2, 2, 2, DefaultConfig())
	lat := n.Transfer(0, 3, 1000, 1)
	if lat == 0 {
		t.Error("transfer latency zero")
	}
	s, d := n.Iface(0), n.Iface(3)
	if s.SendBytes != 1000 || d.RecvBytes != 1000 {
		t.Errorf("byte counters = %d/%d", s.SendBytes, d.RecvBytes)
	}
	wantPackets := uint64((1000 + PacketBytes - 1) / PacketBytes)
	if s.SendPackets != wantPackets || d.RecvPackets != wantPackets {
		t.Errorf("packet counters = %d/%d, want %d", s.SendPackets, d.RecvPackets, wantPackets)
	}
	hops := uint64(n.HopCount(0, 3))
	if d.Hops != wantPackets*hops {
		t.Errorf("hops = %d, want %d", d.Hops, wantPackets*hops)
	}
}

func TestZeroByteMessageMovesHeader(t *testing.T) {
	n := New(2, 1, 1, DefaultConfig())
	n.Transfer(0, 1, 0, 1)
	if n.Iface(0).SendPackets != 1 {
		t.Error("zero-byte message sent no header packet")
	}
}

func TestLatencyScalesWithDistanceAndSize(t *testing.T) {
	n := New(8, 8, 1, DefaultConfig())
	near := n.Transfer(0, 1, 4096, 1)
	far := n.Transfer(0, n.NodeAt(4, 4, 0), 4096, 1)
	if far <= near {
		t.Errorf("far latency %d not above near %d", far, near)
	}
	small := n.Transfer(0, 1, 256, 1)
	large := n.Transfer(0, 1, 1<<20, 1)
	if large <= small {
		t.Errorf("large-message latency %d not above small %d", large, small)
	}
}

func TestSharersSlowTransfers(t *testing.T) {
	n := New(2, 1, 1, DefaultConfig())
	alone := n.Transfer(0, 1, 65536, 1)
	shared := n.Transfer(0, 1, 65536, 4)
	if shared <= alone {
		t.Errorf("shared-link latency %d not above exclusive %d", shared, alone)
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	n := New(2, 1, 1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	n.Transfer(0, 1, -1, 1)
}

func TestBadDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero dimension did not panic")
		}
	}()
	New(0, 1, 1, DefaultConfig())
}
