package node

import (
	"fmt"
	"testing"

	"bgpsim/internal/isa"
	"bgpsim/internal/upc"
)

// classEvents names each instruction class as the upc catalog spells it.
var classEvents = [isa.NumClasses]string{
	isa.IntALU:       "INT_ALU",
	isa.Branch:       "BRANCH",
	isa.Load:         "LOAD",
	isa.Store:        "STORE",
	isa.QuadLoad:     "QUADLOAD",
	isa.QuadStore:    "QUADSTORE",
	isa.FPAddSub:     "FPU_ADD_SUB",
	isa.FPMult:       "FPU_MULT",
	isa.FPDiv:        "FPU_DIV",
	isa.FPFMA:        "FPU_FMA",
	isa.FPSIMDAddSub: "FPU_SIMD_ADD_SUB",
	isa.FPSIMDMult:   "FPU_SIMD_MULT",
	isa.FPSIMDDiv:    "FPU_SIMD_DIV",
	isa.FPSIMDFMA:    "FPU_SIMD_FMA",
}

// TestSampleWiresEveryCatalogSlot gives every source total a counter reads
// its own value and checks all 256 slots of each mode by catalog name: a
// named slot reads its source field (per-core detail, the mode's L3 bank and
// DDR channel in Modes 0 and 1, node aggregates in Mode 2, the system side
// in Mode 3), and a reserved slot reads zero. Without an L3 the L3 slots
// read zero too.
func TestSampleWiresEveryCatalogSlot(t *testing.T) {
	for _, l3Bytes := range []int{8 << 20, 0} {
		n := newTestNode(l3Bytes)
		var want [upc.NumModes]map[string]uint64
		for m := range want {
			want[m] = make(map[string]uint64)
		}
		seq := uint64(0)
		// set gives *p the next distinct value and expects it, summed,
		// under each (mode, name) pair.
		set := func(p *uint64, at ...any) {
			seq++
			*p = seq * 0x9E3779B97F4A7C15 >> 24
			for i := 0; i < len(at); i += 2 {
				want[at[i].(upc.Mode)][at[i+1].(string)] += *p
			}
		}

		for c, cr := range n.Cores {
			detail := upc.Mode0 + upc.Mode(c/2)
			pu := fmt.Sprintf("BGP_PU%d_", c)
			set(&cr.Cycles, detail, pu+"CYCLES", upc.Mode2, pu+"CYCLES", upc.Mode3, pu+"CYCLES")
			for k, ev := range classEvents {
				set(&cr.Mix[k], detail, pu+ev, upc.Mode2, "BGP_NODE_"+ev)
			}
			for _, f := range []struct {
				p  *uint64
				ev string
			}{
				{&cr.L1.Hits, "L1D_HIT"},
				{&cr.L1.Misses, "L1D_MISS"},
				{&cr.L2.Hits, "L2_PF_HIT"},
				{&cr.L2.Misses, "L2_MISS"},
				{&cr.L2.Issued, "L2_PF_ISSUED"},
				{&cr.Snoop.Requests, "SNOOP_REQUESTS"},
				{&cr.Snoop.Filtered, "SNOOP_FILTERED"},
				{&cr.Snoop.Invalidates, "SNOOP_INVALIDATES"},
			} {
				set(f.p, detail, pu+f.ev, upc.Mode2, "BGP_NODE_"+f.ev)
			}
		}
		for b, l3 := range n.L3 {
			bank := upc.Mode0 + upc.Mode(b)
			// The L3 slots are wired with or without an L3; without one
			// they read zero.
			for _, ev := range []string{"HIT", "MISS", "WRITEBACK"} {
				want[bank][fmt.Sprintf("BGP_L3_BANK%d_%s", b, ev)] += 0
				want[upc.Mode2]["BGP_L3_"+ev] += 0
				want[upc.Mode3]["BGP_L3_"+ev] += 0
			}
			if l3 == nil {
				continue
			}
			for ev, p := range map[string]*uint64{"HIT": &l3.Hits, "MISS": &l3.Misses, "WRITEBACK": &l3.Writebacks} {
				set(p, bank, fmt.Sprintf("BGP_L3_BANK%d_%s", b, ev), upc.Mode2, "BGP_L3_"+ev, upc.Mode3, "BGP_L3_"+ev)
			}
		}
		for b, ddr := range n.DDR {
			ch := upc.Mode0 + upc.Mode(b)
			for ev, p := range map[string]*uint64{"READ_LINES": &ddr.ReadLines, "WRITE_LINES": &ddr.WriteLines} {
				set(p, ch, fmt.Sprintf("BGP_DDR%d_%s", b, ev), upc.Mode2, "BGP_DDR_"+ev, upc.Mode3, "BGP_DDR_"+ev)
			}
		}
		tor := n.Torus
		set(&tor.SendPackets, upc.Mode0, "BGP_TORUS_SEND_PACKETS", upc.Mode3, "BGP_TORUS_SEND_PACKETS")
		set(&tor.SendBytes, upc.Mode0, "BGP_TORUS_SEND_BYTES", upc.Mode3, "BGP_TORUS_SEND_BYTES")
		set(&tor.RecvPackets, upc.Mode1, "BGP_TORUS_RECV_PACKETS", upc.Mode3, "BGP_TORUS_RECV_PACKETS")
		set(&tor.RecvBytes, upc.Mode1, "BGP_TORUS_RECV_BYTES", upc.Mode3, "BGP_TORUS_RECV_BYTES")
		set(&tor.Hops, upc.Mode1, "BGP_TORUS_HOPS", upc.Mode3, "BGP_TORUS_HOPS")
		col := n.Collective
		set(&col.Bcasts, upc.Mode3, "BGP_COL_BCAST")
		set(&col.Reduces, upc.Mode3, "BGP_COL_REDUCE")
		set(&col.Barriers, upc.Mode3, "BGP_COL_BARRIER")
		set(&col.Bytes, upc.Mode3, "BGP_COL_BYTES")
		set(&n.L3PrefetchIssued, upc.Mode2, "BGP_L3_PREFETCH_ISSUED", upc.Mode3, "BGP_L3_PREFETCH_ISSUED")

		for m := upc.Mode0; m < upc.NumModes; m++ {
			t.Run(fmt.Sprintf("L3=%d/%v", l3Bytes, m), func(t *testing.T) {
				var v [upc.NumCounters]uint64
				n.sample(m, &v)
				wired := 0
				for i, got := range v {
					name := upc.EventName(upc.MakeEventID(m, i))
					if name == "BGP_RESERVED" {
						if got != 0 {
							t.Errorf("reserved slot %d = %d, want 0", i, got)
						}
						continue
					}
					wired++
					w, ok := want[m][name]
					if !ok {
						t.Errorf("slot %d (%s) has no source in the test's table", i, name)
					} else if got != w {
						t.Errorf("slot %d (%s) = %d, want %d", i, name, got, w)
					}
				}
				if wired != len(want[m]) {
					t.Errorf("catalog wires %d slots, the test's table names %d", wired, len(want[m]))
				}
			})
		}
	}
}
