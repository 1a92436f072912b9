package bgpctr

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bgpsim/internal/core"
	"bgpsim/internal/isa"
	"bgpsim/internal/machine"
	"bgpsim/internal/mpi"
	"bgpsim/internal/node"
	"bgpsim/internal/upc"
)

func testNode() *node.Node {
	return node.New(0, node.DefaultParams(), nil, nil)
}

// runWork executes a small FMA loop on the given core.
func runWork(n *node.Node, coreID int, trips int64) {
	p := &isa.Program{
		Name:    "work",
		Regions: []isa.Region{{Name: "a", Size: 1 << 14}},
		Loops: []isa.Loop{{Name: "l", Trips: trips, Body: []isa.Op{
			{Class: isa.FPFMA},
			{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
		}}},
	}
	st, err := core.Bind(p, uint64(coreID+1)<<32, uint64(coreID)+1)
	if err != nil {
		panic(err)
	}
	n.Cores[coreID].Exec(st, 0)
}

func TestMeasuredOverheadIs196Cycles(t *testing.T) {
	n := testNode()
	before := n.Cores[0].TimeBase()
	s := Initialize(n, 0, upc.Mode2)
	s.Start(1)
	s.Stop(1)
	got := n.Cores[0].TimeBase() - before
	if got != 196 {
		t.Errorf("initialize+start+stop overhead = %d cycles, paper measures 196", got)
	}
	// Subsequent pairs must be far cheaper than the full path.
	before = n.Cores[0].TimeBase()
	s.Start(2)
	s.Stop(2)
	if pair := n.Cores[0].TimeBase() - before; pair >= 196 {
		t.Errorf("extra start/stop pair costs %d cycles, want < 196", pair)
	}
}

func TestSetDeltasIsolateRegions(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode2)
	fmaIdx := upc.EventIndex(upc.Mode2, "BGP_NODE_FPU_FMA")

	s.Start(1)
	runWork(n, 0, 1000)
	s.Stop(1)

	runWork(n, 0, 5000) // unmonitored

	s.Start(2)
	runWork(n, 0, 300)
	s.Stop(2)

	if got := s.SetCounts(1)[fmaIdx]; got != 1000 {
		t.Errorf("set 1 FMA = %d, want 1000", got)
	}
	if got := s.SetCounts(2)[fmaIdx]; got != 300 {
		t.Errorf("set 2 FMA = %d, want 300", got)
	}
}

func TestSetAccumulatesAcrossPairs(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode2)
	fmaIdx := upc.EventIndex(upc.Mode2, "BGP_NODE_FPU_FMA")
	for i := 0; i < 3; i++ {
		s.Start(7)
		runWork(n, 0, 100)
		s.Stop(7)
	}
	if got := s.SetCounts(7)[fmaIdx]; got != 300 {
		t.Errorf("accumulated FMA = %d, want 300", got)
	}
}

func TestBracketingErrors(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Start did not panic")
			}
		}()
		s.Start(1)
		s.Start(1)
	}()
	s2 := Initialize(testNode(), 0, upc.Mode2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Stop without Start did not panic")
			}
		}()
		s2.Stop(9)
	}()
}

// TestStartRejectsSetIDsOutsideU32: the dump stores a set id as a u32, so
// Start refuses an id the file cannot hold rather than letting the
// in-process dump and the file disagree; the largest u32 id is kept as is.
func TestStartRejectsSetIDsOutsideU32(t *testing.T) {
	s := Initialize(testNode(), 0, upc.Mode2)
	for _, set := range []int{-1, math.MinInt, math.MaxUint32 + 1, math.MaxInt} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside [0, 2^32)") {
					t.Errorf("Start(%d) panicked with %q, want a set-range panic", set, msg)
				}
			}()
			s.Start(set)
		}()
	}
	if open := s.OpenSets(); len(open) != 0 {
		t.Errorf("refused sets left open: %v", open)
	}
	s.Start(math.MaxUint32)
	s.Stop(math.MaxUint32)
	d, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDump(d.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("set %d does not survive the file: decoded sets %+v", math.MaxUint32, back.Sets)
	}
}

func TestFinalizeRejectsOpenSets(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode2)
	s.Start(1)
	if _, err := s.Finalize(); err == nil {
		t.Error("Finalize with open set succeeded")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode2)
	s.Start(1)
	runWork(n, 0, 1234)
	s.Stop(1)
	s.Start(5)
	runWork(n, 0, 77)
	s.Stop(5)

	want1 := *s.SetCounts(1)
	fin, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(bytes.NewReader(fin.Append(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeID != 0 || d.Mode != upc.Mode2 || len(d.Sets) != 2 {
		t.Fatalf("decoded header: %+v", d)
	}
	if d.Sets[0].ID != 1 || d.Sets[1].ID != 5 {
		t.Errorf("set order: %d, %d", d.Sets[0].ID, d.Sets[1].ID)
	}
	if d.Sets[0].Counts != want1 {
		t.Error("set 1 counters corrupted in round trip")
	}
	if d.Sets[0].Pairs != 1 || d.Sets[0].LastCycle <= d.Sets[0].FirstCycle {
		t.Errorf("set 1 metadata: %+v", d.Sets[0])
	}
}

func TestDumpDetectsCorruption(t *testing.T) {
	n := testNode()
	s := Initialize(n, 0, upc.Mode3)
	s.Start(1)
	s.Stop(1)
	d, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	blob := d.Append(nil)

	// Flip a counter byte: the CRC must catch it.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-40] ^= 0xff
	if _, err := ReadDump(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted dump accepted: %v", err)
	}
	// Truncated file.
	if _, err := ReadDump(bytes.NewReader(blob[:len(blob)-10])); err == nil {
		t.Error("truncated dump accepted")
	}
	// Wrong magic.
	bad2 := append([]byte(nil), blob...)
	bad2[0] = 'X'
	if _, err := ReadDump(bytes.NewReader(bad2)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFinalizeTwiceFails(t *testing.T) {
	s := Initialize(testNode(), 0, upc.Mode2)
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(); err == nil {
		t.Error("second Finalize succeeded")
	}
}

func TestDefaultModeSplit(t *testing.T) {
	if DefaultMode(0) != upc.Mode2 || DefaultMode(2) != upc.Mode2 {
		t.Error("even nodes must monitor the aggregate mode")
	}
	if DefaultMode(1) != upc.Mode3 || DefaultMode(7) != upc.Mode3 {
		t.Error("odd nodes must monitor the system mode")
	}
}

func TestInstrumentMPIJob(t *testing.T) {
	m := machine.New(4, machine.VNM, machine.DefaultParams())
	j, err := mpi.NewJob(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := &isa.Program{
		Name:    "w",
		Regions: []isa.Region{{Name: "a", Size: 1 << 14}},
		Loops: []isa.Loop{{Name: "l", Trips: 2000, Body: []isa.Op{
			{Class: isa.FPFMA},
			{Class: isa.Load, Pat: isa.Seq, Region: 0, Stride: 8},
		}}},
	}
	dumps, err := Instrument(j, func(r *mpi.Rank) {
		r.Exec(p)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDumps(dir, dumps); err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 4 {
		t.Fatalf("got %d dumps, want one per node", len(dumps))
	}
	for i, d := range dumps {
		if d.NodeID != i {
			t.Errorf("dump %d from node %d", i, d.NodeID)
		}
		if d.Mode != DefaultMode(i) {
			t.Errorf("node %d monitored %v, want %v", i, d.Mode, DefaultMode(i))
		}
		if len(d.Sets) != 1 || d.Sets[0].ID != WholeAppSet {
			t.Errorf("node %d sets: %+v", i, d.Sets)
		}
	}
	// Even nodes carry the aggregate FMA counts of their 4 ranks.
	fmaIdx := upc.EventIndex(upc.Mode2, "BGP_NODE_FPU_FMA")
	if got := dumps[0].Sets[0].Counts[fmaIdx]; got != 4*2000 {
		t.Errorf("node 0 FMA = %d, want 8000", got)
	}
	// Files exist and re-parse.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 4 {
		t.Fatalf("dump dir: %v entries, err %v", len(entries), err)
	}
	f, err := os.Open(filepath.Join(dir, "node0002.bgpc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadDump(f); err != nil {
		t.Errorf("file dump unreadable: %v", err)
	}
}

func TestInstrumentRegions(t *testing.T) {
	m := machine.New(2, machine.VNM, machine.DefaultParams())
	j, err := mpi.NewJob(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{
		Name:  "w",
		Loops: []isa.Loop{{Name: "l", Trips: 500, Body: []isa.Op{{Class: isa.FPFMA}}}},
	}
	dumps, err := InstrumentRegions(j, func(r *mpi.Rank, s *Session) {
		// Only the node's monitoring rank brackets the custom region,
		// mirroring a "single monitoring thread" usage.
		if r.CoreID() == 0 {
			s.Start(3)
		}
		r.Exec(p)
		r.Barrier()
		if r.CoreID() == 0 {
			s.Stop(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dumps {
		if len(d.Sets) != 2 {
			t.Fatalf("node %d has %d sets, want 2", d.NodeID, len(d.Sets))
		}
	}
}
