package node

import (
	"bgpsim/internal/core"
	"bgpsim/internal/isa"
	"bgpsim/internal/upc"
)

// sample writes the raw totals of the node's hardware event sources into v,
// the 256 counter slots of one UPC mode, realizing the event catalog
// declared in the upc package. Each slot reads a free-running total owned by
// its source unit; slots the catalog reserves stay zero, as do an absent L3's.
func (n *Node) sample(mode upc.Mode, v *[upc.NumCounters]uint64) {
	switch mode {
	case upc.Mode0, upc.Mode1:
		// Detail modes: Mode0 = cores 0-1, bank 0, DDR0, torus send;
		// Mode1 = cores 2-3, bank 1, DDR1, torus receive.
		pair := int(mode)
		coreDetail(v[upc.DetailCoreBase:], n.Cores[pair*2])
		coreDetail(v[upc.DetailCoreBase+upc.CoreDetailStride:], n.Cores[pair*2+1])
		if l3 := n.L3[pair]; l3 != nil {
			v[upc.DetailL3Base+0] = l3.Hits
			v[upc.DetailL3Base+1] = l3.Misses
			v[upc.DetailL3Base+2] = l3.Writebacks
		}
		v[upc.DetailDDRBase+0] = n.DDR[pair].ReadLines
		v[upc.DetailDDRBase+1] = n.DDR[pair].WriteLines
		if mode == upc.Mode0 {
			v[upc.DetailTorusBase+0] = n.Torus.SendPackets
			v[upc.DetailTorusBase+1] = n.Torus.SendBytes
		} else {
			v[upc.DetailTorusBase+0] = n.Torus.RecvPackets
			v[upc.DetailTorusBase+1] = n.Torus.RecvBytes
			v[upc.DetailTorusBase+2] = n.Torus.Hops
		}

	case upc.Mode2:
		// Node-wide aggregates.
		for c, cr := range n.Cores {
			v[upc.AggCyclesBase+c] = cr.Cycles
			for k, x := range &cr.Mix {
				v[upc.AggClassBase+k] += x
			}
			v[upc.AggL1Base+0] += cr.L1.Hits
			v[upc.AggL1Base+1] += cr.L1.Misses
			v[upc.AggL2Base+0] += cr.L2.Hits
			v[upc.AggL2Base+1] += cr.L2.Misses
			v[upc.AggL2Base+2] += cr.L2.Issued
			v[upc.AggSnoopBase+0] += cr.Snoop.Requests
			v[upc.AggSnoopBase+1] += cr.Snoop.Filtered
			v[upc.AggSnoopBase+2] += cr.Snoop.Invalidates
		}
		n.l3Totals(v[upc.AggL3Base:])
		n.ddrTotals(v[upc.AggDDRBase:])
		v[upc.AggL3PfBase] = n.L3PrefetchIssued

	case upc.Mode3:
		// System side.
		v[upc.SysCollectiveBase+0] = n.Collective.Bcasts
		v[upc.SysCollectiveBase+1] = n.Collective.Reduces
		v[upc.SysCollectiveBase+2] = n.Collective.Barriers
		v[upc.SysCollectiveBase+3] = n.Collective.Bytes
		v[upc.SysTorusBase+0] = n.Torus.SendPackets
		v[upc.SysTorusBase+1] = n.Torus.RecvPackets
		v[upc.SysTorusBase+2] = n.Torus.SendBytes
		v[upc.SysTorusBase+3] = n.Torus.RecvBytes
		v[upc.SysTorusBase+4] = n.Torus.Hops
		n.l3Totals(v[upc.SysL3Base:])
		n.ddrTotals(v[upc.SysDDRBase:])
		for c, cr := range n.Cores {
			v[upc.SysCyclesBase+c] = cr.Cycles
		}
		v[upc.SysL3PfBase] = n.L3PrefetchIssued
	}
}

// coreDetail writes core cr's CoreDetailStride detail events to the head
// of v: cycles, the instruction mix by class, then L1, L2 and snoop-filter
// totals.
func coreDetail(v []uint64, cr *core.Core) {
	v[0] = cr.Cycles
	copy(v[1:], cr.Mix[:])
	d := v[1+isa.NumClasses:]
	d[0], d[1] = cr.L1.Hits, cr.L1.Misses
	d[2], d[3], d[4] = cr.L2.Hits, cr.L2.Misses, cr.L2.Issued
	d[5], d[6], d[7] = cr.Snoop.Requests, cr.Snoop.Filtered, cr.Snoop.Invalidates
}

// l3Totals writes the hit, miss and writeback totals of both L3 banks to
// the head of v.
func (n *Node) l3Totals(v []uint64) {
	for _, l3 := range n.L3 {
		if l3 != nil {
			v[0] += l3.Hits
			v[1] += l3.Misses
			v[2] += l3.Writebacks
		}
	}
}

// ddrTotals writes both controllers' read and write line totals to the
// head of v.
func (n *Node) ddrTotals(v []uint64) {
	v[0] = n.DDR[0].ReadLines + n.DDR[1].ReadLines
	v[1] = n.DDR[0].WriteLines + n.DDR[1].WriteLines
}
