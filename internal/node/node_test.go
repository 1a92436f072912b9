package node

import (
	"testing"

	"bgpsim/internal/core"
	"bgpsim/internal/isa"
	"bgpsim/internal/upc"
)

func newTestNode(l3Bytes int) *Node {
	p := DefaultParams()
	p.L3Bytes = l3Bytes
	return New(0, p, nil, nil)
}

// runStream executes a sequential load stream over regionBytes on coreID.
func runStream(n *Node, coreID int, regionBytes uint64, trips int64) {
	p := &isa.Program{
		Name:    "stream",
		Regions: []isa.Region{{Name: "a", Size: regionBytes}},
		Loops: []isa.Loop{{
			Name:  "l",
			Trips: trips,
			Body: []isa.Op{
				{Class: isa.FPFMA},
				{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
			},
		}},
	}
	st, err := core.Bind(p, uint64(coreID+1)<<32, uint64(coreID)+1)
	if err != nil {
		panic(err)
	}
	n.SetActive(coreID, true)
	n.Cores[coreID].Exec(st, 0)
	n.SetActive(coreID, false)
}

func TestL3CapturesFittingWorkingSet(t *testing.T) {
	n := newTestNode(8 << 20)
	// 1 MB working set swept repeatedly fits in 8 MB L3.
	runStream(n, 0, 1<<20, 1<<18) // two full sweeps
	ddr := n.DDRTrafficLines()
	coldLines := uint64(1 << 20 / core.LineBytes)
	if ddr > coldLines*3/2 {
		t.Errorf("DDR lines = %d, want near compulsory %d", ddr, coldLines)
	}
}

func TestNoL3AllMissesGoToDRAM(t *testing.T) {
	withL3 := newTestNode(8 << 20)
	without := newTestNode(0)
	runStream(withL3, 0, 1<<20, 1<<18)
	runStream(without, 0, 1<<20, 1<<18)
	if without.DDRTrafficLines() <= withL3.DDRTrafficLines() {
		t.Errorf("L3-less node DDR traffic %d not above L3 node %d",
			without.DDRTrafficLines(), withL3.DDRTrafficLines())
	}
}

func TestSmallerL3MoreTraffic(t *testing.T) {
	big := newTestNode(8 << 20)
	small := newTestNode(2 << 20)
	// 3 MB working set swept ~5 times: fits in 8 MB, thrashes 2 MB.
	runStream(big, 0, 3<<20, 1<<21)
	runStream(small, 0, 3<<20, 1<<21)
	if small.DDRTrafficLines() <= big.DDRTrafficLines()*2 {
		t.Errorf("2MB L3 traffic %d not well above 8MB L3 traffic %d",
			small.DDRTrafficLines(), big.DDRTrafficLines())
	}
}

func TestBankInterleaving(t *testing.T) {
	n := newTestNode(8 << 20)
	runStream(n, 0, 1<<20, 1<<17)
	r0 := n.DDR[0].ReadLines
	r1 := n.DDR[1].ReadLines
	if r0 == 0 || r1 == 0 {
		t.Fatalf("traffic not interleaved: %d/%d", r0, r1)
	}
	ratio := float64(r0) / float64(r1)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("controller imbalance: %d vs %d", r0, r1)
	}
}

func TestActiveCores(t *testing.T) {
	n := newTestNode(8 << 20)
	if n.ActiveCores() != 0 {
		t.Fatal("fresh node has active cores")
	}
	n.SetActive(0, true)
	n.SetActive(3, true)
	if n.ActiveCores() != 2 {
		t.Errorf("ActiveCores = %d, want 2", n.ActiveCores())
	}
}

func TestContentionSlowsReads(t *testing.T) {
	n := newTestNode(0) // straight to DRAM
	lat1 := n.ReadLine(0, 0x1000)
	n.SetActive(0, true)
	n.SetActive(1, true)
	n.SetActive(2, true)
	n.SetActive(3, true)
	lat4 := n.ReadLine(0, 0x2000)
	if lat4 <= lat1 {
		t.Errorf("contended read latency %d not above uncontended %d", lat4, lat1)
	}
}

func TestDMATransferSplitsAcrossControllers(t *testing.T) {
	n := newTestNode(8 << 20)
	n.DMATransfer(128*10, true)
	if n.DDR[0].ReadLines+n.DDR[1].ReadLines != 10 {
		t.Errorf("DMA lines = %d+%d, want 10", n.DDR[0].ReadLines, n.DDR[1].ReadLines)
	}
	if n.DDR[0].ReadLines == 0 || n.DDR[1].ReadLines == 0 {
		t.Error("DMA traffic not split across controllers")
	}
}

func TestL3CopyUsesL3NotDDRWhenHot(t *testing.T) {
	n := newTestNode(8 << 20)
	src, dst := uint64(0x100000), uint64(0x200000)
	n.L3Copy(src, dst, 64<<10) // cold: populates L3
	before := n.DDRTrafficLines()
	n.L3Copy(src, dst, 64<<10) // hot: should stay in L3
	after := n.DDRTrafficLines()
	if after != before {
		t.Errorf("hot intra-node copy moved %d DDR lines", after-before)
	}
}

func TestL3CopyWithoutL3StreamsThroughDRAM(t *testing.T) {
	n := newTestNode(0)
	n.L3Copy(0x1000, 0x2000, 128*8)
	if n.DDRTrafficLines() == 0 {
		t.Error("no DDR traffic for L3-less copy")
	}
}

func TestNodeMixMergesCores(t *testing.T) {
	n := newTestNode(8 << 20)
	runStream(n, 0, 1<<16, 1000)
	runStream(n, 2, 1<<16, 500)
	m := n.NodeMix()
	if m[isa.FPFMA] != 1500 {
		t.Errorf("node FMA count = %d, want 1500", m[isa.FPFMA])
	}
}

func TestUPCMode2AggregatesMatchUnits(t *testing.T) {
	n := newTestNode(8 << 20)
	n.UPC.SetMode(upc.Mode2)
	n.UPC.Start()
	runStream(n, 0, 1<<20, 1<<16)
	runStream(n, 1, 1<<20, 1<<16)
	n.UPC.Stop()

	fmaIdx := upc.EventIndex(upc.Mode2, "BGP_NODE_FPU_FMA")
	if got, want := n.UPC.Read(fmaIdx), n.NodeMix()[isa.FPFMA]; got != want {
		t.Errorf("UPC FMA = %d, want %d", got, want)
	}
	ddrIdx := upc.EventIndex(upc.Mode2, "BGP_DDR_READ_LINES")
	wantReads := n.DDR[0].ReadLines + n.DDR[1].ReadLines
	if got := n.UPC.Read(ddrIdx); got != wantReads {
		t.Errorf("UPC DDR reads = %d, want %d", got, wantReads)
	}
	cyc0 := upc.EventIndex(upc.Mode2, "BGP_PU0_CYCLES")
	if got := n.UPC.Read(cyc0); got != n.Cores[0].Cycles {
		t.Errorf("UPC PU0 cycles = %d, want %d", got, n.Cores[0].Cycles)
	}
}

func TestUPCDetailModeSeesOnlyItsCores(t *testing.T) {
	n := newTestNode(8 << 20)
	n.UPC.SetMode(upc.Mode0)
	n.UPC.Start()
	runStream(n, 0, 1<<16, 1000)
	runStream(n, 2, 1<<16, 999) // core 2 is only visible in Mode1
	n.UPC.Stop()

	pu0 := upc.EventIndex(upc.Mode0, "BGP_PU0_FPU_FMA")
	if got := n.UPC.Read(pu0); got != 1000 {
		t.Errorf("Mode0 PU0 FMA = %d, want 1000", got)
	}
	if idx := upc.EventIndex(upc.Mode0, "BGP_PU2_FPU_FMA"); idx != -1 {
		t.Errorf("Mode0 unexpectedly carries PU2 events at %d", idx)
	}
	pu2 := upc.EventIndex(upc.Mode1, "BGP_PU2_FPU_FMA")
	if pu2 == -1 {
		t.Fatal("Mode1 missing PU2 FMA event")
	}
}

func TestUPCZeroL3SignalsReadZero(t *testing.T) {
	n := newTestNode(0)
	n.UPC.SetMode(upc.Mode2)
	n.UPC.Start()
	runStream(n, 0, 1<<18, 1<<14)
	n.UPC.Stop()
	if got := n.UPC.Read(upc.EventIndex(upc.Mode2, "BGP_L3_HIT")); got != 0 {
		t.Errorf("L3 hits on L3-less node = %d", got)
	}
	if got := n.UPC.Read(upc.EventIndex(upc.Mode2, "BGP_DDR_READ_LINES")); got == 0 {
		t.Error("no DDR reads recorded on L3-less node")
	}
}

func TestWriteLineAllocatesInL3(t *testing.T) {
	n := newTestNode(8 << 20)
	// A dirty L1 victim landing in L3 should hit on re-read.
	n.WriteLine(0, 0x4000)
	lat := n.ReadLine(0, 0x4000)
	if lat > n.params.L3HitLatency+n.params.L3SharerPenalty*3 {
		t.Errorf("read after write-allocate cost %d, want L3 hit", lat)
	}
}

// TestL3GeometryArbitrarySizes checks that l3Geometry keeps each of the
// paper's L3 sizes exactly, widening the associativity where a bank's line
// count is not 8×2^k, and that New boots banks holding exactly half of it:
// a bank keeps only the sets its own addresses reach (DESIGN.md Known
// deviation 5). The fidelity fix that removes the deviation flips the half
// back to the whole.
func TestL3GeometryArbitrarySizes(t *testing.T) {
	for _, tc := range []struct{ mb, sets, ways int }{
		{2, 1024, 8},
		{4, 2048, 8},
		{6, 2048, 12},
		{8, 4096, 8},
	} {
		bankBytes := tc.mb << 20 / NumL3Banks
		sets, ways := l3Geometry(bankBytes, 8)
		if sets != tc.sets || ways != tc.ways || sets*ways*core.LineBytes != bankBytes {
			t.Errorf("%dMB L3: bank geometry %d sets × %d ways, want %d × %d (%d bytes)",
				tc.mb, sets, ways, tc.sets, tc.ways, bankBytes)
		}
		p := DefaultParams()
		p.L3Bytes = tc.mb << 20
		n := New(0, p, nil, nil)
		total := 0
		for _, bank := range n.L3 {
			total += bank.SizeBytes()
		}
		if total != tc.mb<<20/2 {
			t.Errorf("%dMB L3 booted banks of %d bytes in all, want half (Known deviation 5)", tc.mb, total)
		}
	}
}

func TestSnoopBroadcastOnRemoteWrites(t *testing.T) {
	n := newTestNode(8 << 20)
	// Core 0 holds the line in its L1 with the snoop filter tracking it
	// (the state a demand fill leaves behind), then core 1 writes it.
	n.Cores[0].L1.Access(0x8000, false)
	n.Cores[0].Snoop.Track(0x8000, 7)
	n.WriteLine(1, 0x8000)
	if n.Cores[0].Snoop.Requests == 0 {
		t.Error("remote write generated no snoop request")
	}
	if n.Cores[0].Snoop.Invalidates == 0 {
		t.Error("tracked, cached line not invalidated")
	}
	if n.Cores[0].L1.Contains(0x8000) {
		t.Error("line survived coherence invalidation")
	}
	// The writer itself must not be snooped.
	if n.Cores[1].Snoop.Requests != 0 {
		t.Error("writer snooped itself")
	}
}

func TestSnoopMostlyFilteredOnDisjointData(t *testing.T) {
	// Ranks work on disjoint addresses: nearly all snoops should be
	// filtered — the snoop filter's purpose on the real chip.
	n := newTestNode(8 << 20)
	runStream(n, 0, 1<<19, 1<<15)
	p := &isa.Program{
		Name:    "writer",
		Regions: []isa.Region{{Name: "w", Size: 1 << 19}},
		Loops: []isa.Loop{{Name: "l", Trips: 1 << 15, Body: []isa.Op{
			{Class: isa.Store, Pat: isa.Seq, Region: 0, Stride: 32},
		}}},
	}
	st, err := core.Bind(p, 8<<32, 99)
	if err != nil {
		t.Fatal(err)
	}
	n.Cores[1].Exec(st, 0)
	f := n.Cores[0].Snoop
	if f.Requests == 0 {
		t.Fatal("no snoop traffic")
	}
	if frac := float64(f.Filtered) / float64(f.Requests); frac < 0.95 {
		t.Errorf("only %.2f of snoops filtered on disjoint data", frac)
	}
}

func TestDMADeliverSnoopsAllCores(t *testing.T) {
	n := newTestNode(8 << 20)
	n.DMADeliver(0x10000, 4*128)
	for c := 0; c < NumCores; c++ {
		if n.Cores[c].Snoop.Requests != 4 {
			t.Errorf("core %d saw %d snoops, want 4", c, n.Cores[c].Snoop.Requests)
		}
	}
}

// Compile-time check: the node is the cores' memory system.
var _ core.Lower = (*Node)(nil)

func TestL3PrefetchEngine(t *testing.T) {
	// A strided sweep whose stride defeats the per-core L2 detector
	// (delta 8 lines > 4) but not the L3 engine (maxDelta 16).
	sweep := func(depth int) (*Node, uint64) {
		p := DefaultParams()
		p.L3PrefetchDepth = depth
		n := New(0, p, nil, nil)
		prog := &isa.Program{
			Name:    "strided",
			Regions: []isa.Region{{Name: "a", Size: 4 << 20}},
			Loops: []isa.Loop{{Name: "l", Trips: 1 << 14, Body: []isa.Op{
				{Class: isa.Load, Pat: isa.Strided, Region: 0, Stride: 1024},
			}}},
		}
		st, err := core.Bind(prog, 1<<32, 3)
		if err != nil {
			t.Fatal(err)
		}
		n.SetActive(0, true)
		n.Cores[0].Exec(st, 0)
		return n, n.Cores[0].Cycles
	}
	nOff, cyclesOff := sweep(0)
	nOn, cyclesOn := sweep(4)
	if nOff.L3PrefetchIssued != 0 {
		t.Error("disabled engine issued prefetches")
	}
	if nOn.L3PrefetchIssued == 0 {
		t.Fatal("enabled engine issued nothing on a strided sweep")
	}
	if cyclesOn >= cyclesOff {
		t.Errorf("L3 prefetch did not help: %d vs %d cycles", cyclesOn, cyclesOff)
	}
}

func TestL3PrefetchCounterWired(t *testing.T) {
	p := DefaultParams()
	p.L3PrefetchDepth = 2
	n := New(0, p, nil, nil)
	n.UPC.SetMode(upc.Mode2)
	n.UPC.Start()
	runStream(n, 0, 4<<20, 1<<16)
	n.UPC.Stop()
	idx := upc.EventIndex(upc.Mode2, "BGP_L3_PREFETCH_ISSUED")
	if idx < 0 {
		t.Fatal("event not in catalog")
	}
	if got := n.UPC.Read(idx); got != n.L3PrefetchIssued {
		t.Errorf("UPC reads %d, node counted %d", got, n.L3PrefetchIssued)
	}
}

// BenchmarkNodeNew is the host cost of booting one production node (the
// default 8 MB L3), which machine.New pays for every node of every run it
// boots; bytes/op is dominated by the L3 banks' tag slabs.
//
//	go test -run '^$' -bench NodeNew -benchmem ./internal/node
func BenchmarkNodeNew(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bootedNode = New(0, p, nil, nil)
	}
}

// bootedNode keeps BenchmarkNodeNew's boots observable to the compiler.
var bootedNode *Node
