package collective

import "testing"

func TestDepthGrowsLogarithmically(t *testing.T) {
	cases := []struct{ nodes, depth int }{
		{1, 1}, {2, 1}, {4, 2}, {32, 5}, {128, 7}, {73728, 17},
	}
	for _, tc := range cases {
		if got := New(tc.nodes, DefaultConfig()).Depth(); got != tc.depth {
			t.Errorf("depth(%d nodes) = %d, want %d", tc.nodes, got, tc.depth)
		}
	}
}

func TestBroadcastCountsAllParticipants(t *testing.T) {
	n := New(8, DefaultConfig())
	nodes := []int{0, 2, 5}
	lat := n.Broadcast(nodes, 512)
	if lat == 0 {
		t.Error("broadcast latency zero")
	}
	for _, id := range nodes {
		i := n.Iface(id)
		if i.Bcasts != 1 || i.Bytes != 512 {
			t.Errorf("node %d: bcasts=%d bytes=%d", id, i.Bcasts, i.Bytes)
		}
	}
	if n.Iface(1).Bcasts != 0 {
		t.Error("non-participant counted")
	}
}

func TestReduceAndBarrierCounters(t *testing.T) {
	n := New(4, DefaultConfig())
	nodes := []int{0, 1, 2, 3}
	n.Reduce(nodes, 64)
	n.Barrier(nodes)
	for _, id := range nodes {
		i := n.Iface(id)
		if i.Reduces != 1 || i.Barriers != 1 {
			t.Errorf("node %d: reduces=%d barriers=%d", id, i.Reduces, i.Barriers)
		}
	}
}

func TestBarrierLatencyDepthIndependent(t *testing.T) {
	small := New(2, DefaultConfig())
	big := New(1024, DefaultConfig())
	if small.Barrier([]int{0}) != big.Barrier([]int{0}) {
		t.Error("barrier latency varies with partition size")
	}
}

func TestBroadcastLatencyScalesWithSize(t *testing.T) {
	n := New(64, DefaultConfig())
	if n.Broadcast(nil, 1<<20) <= n.Broadcast(nil, 64) {
		t.Error("large broadcast not slower than small")
	}
}

func TestLargerPartitionSlowerBroadcast(t *testing.T) {
	small := New(2, DefaultConfig())
	big := New(4096, DefaultConfig())
	if big.Broadcast(nil, 1024) <= small.Broadcast(nil, 1024) {
		t.Error("deep tree not slower than shallow")
	}
}

func TestBadNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, DefaultConfig())
}
