package machine

import "testing"

// TestModeTable pins the operating-mode table of the paper's Figure 3.
func TestModeTable(t *testing.T) {
	cases := []struct {
		mode    OpMode
		ranks   int
		threads int
		name    string
	}{
		{SMP1, 1, 1, "SMP/1"},
		{SMP4, 1, 4, "SMP/4"},
		{Dual, 2, 2, "DUAL"},
		{VNM, 4, 1, "VNM"},
	}
	for _, tc := range cases {
		if got := tc.mode.RanksPerNode(); got != tc.ranks {
			t.Errorf("%v: RanksPerNode = %d, want %d", tc.mode, got, tc.ranks)
		}
		if got := tc.mode.ThreadsPerRank(); got != tc.threads {
			t.Errorf("%v: ThreadsPerRank = %d, want %d", tc.mode, got, tc.threads)
		}
		if got := tc.mode.String(); got != tc.name {
			t.Errorf("mode name = %q, want %q", got, tc.name)
		}
		// Every mode uses at most the four cores of a node.
		if tc.mode.RanksPerNode()*tc.mode.ThreadsPerRank() > 4 {
			t.Errorf("%v oversubscribes the node", tc.mode)
		}
	}
}

func TestCoreForSlot(t *testing.T) {
	if c := VNM.CoreForSlot(3); c != 3 {
		t.Errorf("VNM slot 3 → core %d, want 3", c)
	}
	if c := Dual.CoreForSlot(1); c != 2 {
		t.Errorf("Dual slot 1 → core %d, want 2 (a core pair per process)", c)
	}
	if c := SMP1.CoreForSlot(0); c != 0 {
		t.Errorf("SMP1 slot 0 → core %d, want 0", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slot did not panic")
		}
	}()
	SMP1.CoreForSlot(1)
}

func TestTorusDims(t *testing.T) {
	cases := []struct{ n, x, y, z int }{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{32, 4, 4, 2},
		{64, 4, 4, 4},
		{128, 8, 4, 4},
		{7, 7, 1, 1},
	}
	for _, tc := range cases {
		x, y, z := TorusDims(tc.n)
		if x*y*z != tc.n {
			t.Errorf("TorusDims(%d) = %d×%d×%d does not multiply out", tc.n, x, y, z)
		}
		if x != tc.x || y != tc.y || z != tc.z {
			t.Errorf("TorusDims(%d) = %d×%d×%d, want %d×%d×%d", tc.n, x, y, z, tc.x, tc.y, tc.z)
		}
	}
}

func TestPlacementVNM(t *testing.T) {
	m := New(4, VNM, DefaultParams())
	if m.MaxRanks() != 16 {
		t.Fatalf("MaxRanks = %d, want 16", m.MaxRanks())
	}
	// Consecutive ranks fill a node before moving on (XYZT mapping).
	for rank := 0; rank < 16; rank++ {
		nodeID, coreID := m.Place(rank)
		if nodeID != rank/4 || coreID != rank%4 {
			t.Errorf("rank %d → node %d core %d, want node %d core %d",
				rank, nodeID, coreID, rank/4, rank%4)
		}
	}
}

func TestPlacementSMP1(t *testing.T) {
	m := New(8, SMP1, DefaultParams())
	if m.MaxRanks() != 8 {
		t.Fatalf("MaxRanks = %d, want 8", m.MaxRanks())
	}
	for rank := 0; rank < 8; rank++ {
		nodeID, coreID := m.Place(rank)
		if nodeID != rank || coreID != 0 {
			t.Errorf("rank %d → node %d core %d, want node %d core 0", rank, nodeID, coreID, rank)
		}
	}
}

func TestNodesWiredToNetworks(t *testing.T) {
	m := New(8, VNM, DefaultParams())
	if m.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	for i, n := range m.Nodes {
		if n.Torus != m.Torus.Iface(i) {
			t.Errorf("node %d torus interface not wired", i)
		}
		if n.Collective != m.Collective.Iface(i) {
			t.Errorf("node %d collective interface not wired", i)
		}
	}
}

// TestL3BootOption checks that every node boots the configured L3 size,
// and that its banks hold exactly half of it: a bank keeps only the sets
// its own addresses reach (DESIGN.md Known deviation 5). The fidelity fix
// that removes the deviation flips the half back to the whole.
func TestL3BootOption(t *testing.T) {
	p := DefaultParams()
	p.Node.L3Bytes = 2 << 20
	m := New(2, SMP1, p)
	for _, n := range m.Nodes {
		if got := n.Params().L3Bytes; got != 2<<20 {
			t.Errorf("node %d booted with L3Bytes = %d, want 2MB", n.ID(), got)
		}
		got := 0
		for _, bank := range n.L3 {
			if bank != nil {
				got += bank.SizeBytes()
			}
		}
		if got != 1<<20 {
			t.Errorf("booted L3 banks = %d bytes, want 1MB (half of 2MB, Known deviation 5)", got)
		}
	}
}

func TestBadNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, SMP1, DefaultParams())
}

func TestParseMode(t *testing.T) {
	for _, mode := range []OpMode{SMP1, SMP4, Dual, VNM} {
		if got, err := ParseMode(mode.String()); err != nil || got != mode {
			t.Errorf("ParseMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	for spelling, want := range map[string]OpMode{"smp": SMP1, " smp4 ": SMP4, "dual": Dual, "vn": VNM} {
		if got, err := ParseMode(spelling); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v, want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseMode("quad"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}
