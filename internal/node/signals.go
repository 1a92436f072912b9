package node

import (
	"bgpsim/internal/cache"
	"bgpsim/internal/isa"
	"bgpsim/internal/upc"
)

// signals wires the node's hardware event sources into sig, the UPC signal
// table of one counter mode, realizing the event catalog declared in the
// upc package. Every signal is a closure sampling a free-running counter
// owned by the source unit. The UPC unit calls it the first time it samples
// in a mode.
func (n *Node) signals(mode upc.Mode, sig *[upc.NumCounters]upc.Signal) {
	ptr := func(p *uint64) upc.Signal { return func() uint64 { return *p } }

	// coreDetail fills the per-core detail events of core c at base index off.
	coreDetail := func(off int, c int) {
		cr := n.Cores[c]
		sig[off] = ptr(&cr.Cycles)
		for k := 0; k < int(isa.NumClasses); k++ {
			sig[off+1+k] = ptr(&cr.Mix[k])
		}
		base := off + 1 + int(isa.NumClasses)
		sig[base+0] = ptr(&cr.L1.Hits)
		sig[base+1] = ptr(&cr.L1.Misses)
		sig[base+2] = ptr(&cr.L2.Hits)
		sig[base+3] = ptr(&cr.L2.Misses)
		sig[base+4] = ptr(&cr.L2.Issued)
		sig[base+5] = ptr(&cr.Snoop.Requests)
		sig[base+6] = ptr(&cr.Snoop.Filtered)
		sig[base+7] = ptr(&cr.Snoop.Invalidates)
	}

	l3Signal := func(bank int, field func(*cache.Cache) *uint64) upc.Signal {
		l3 := n.L3[bank]
		if l3 == nil {
			return nil
		}
		return ptr(field(l3))
	}
	l3Total := func(field func(*cache.Cache) *uint64) upc.Signal {
		return func() uint64 {
			var t uint64
			for _, l3 := range n.L3 {
				if l3 != nil {
					t += *field(l3)
				}
			}
			return t
		}
	}
	hits := func(c *cache.Cache) *uint64 { return &c.Hits }
	misses := func(c *cache.Cache) *uint64 { return &c.Misses }
	writebacks := func(c *cache.Cache) *uint64 { return &c.Writebacks }
	ddrReads := func() uint64 { return n.DDR[0].ReadLines + n.DDR[1].ReadLines }
	ddrWrites := func() uint64 { return n.DDR[0].WriteLines + n.DDR[1].WriteLines }

	switch mode {
	case upc.Mode0, upc.Mode1:
		// Detail modes: Mode0 = cores 0-1, bank 0, DDR0, torus send;
		// Mode1 = cores 2-3, bank 1, DDR1, torus receive.
		pair := int(mode)
		coreDetail(upc.DetailCoreBase, pair*2)
		coreDetail(upc.DetailCoreBase+upc.CoreDetailStride, pair*2+1)
		sig[upc.DetailL3Base+0] = l3Signal(pair, hits)
		sig[upc.DetailL3Base+1] = l3Signal(pair, misses)
		sig[upc.DetailL3Base+2] = l3Signal(pair, writebacks)
		sig[upc.DetailDDRBase+0] = ptr(&n.DDR[pair].ReadLines)
		sig[upc.DetailDDRBase+1] = ptr(&n.DDR[pair].WriteLines)
		if mode == upc.Mode0 {
			sig[upc.DetailTorusBase+0] = ptr(&n.Torus.SendPackets)
			sig[upc.DetailTorusBase+1] = ptr(&n.Torus.SendBytes)
		} else {
			sig[upc.DetailTorusBase+0] = ptr(&n.Torus.RecvPackets)
			sig[upc.DetailTorusBase+1] = ptr(&n.Torus.RecvBytes)
			sig[upc.DetailTorusBase+2] = ptr(&n.Torus.Hops)
		}

	case upc.Mode2:
		// Node-wide aggregates.
		for c := 0; c < NumCores; c++ {
			sig[upc.AggCyclesBase+c] = ptr(&n.Cores[c].Cycles)
		}
		for k := 0; k < int(isa.NumClasses); k++ {
			k := k
			sig[upc.AggClassBase+k] = func() uint64 {
				var t uint64
				for _, c := range n.Cores {
					t += c.Mix[k]
				}
				return t
			}
		}
		sumCores := func(f func(i int) uint64) upc.Signal {
			return func() uint64 {
				var t uint64
				for i := 0; i < NumCores; i++ {
					t += f(i)
				}
				return t
			}
		}
		sig[upc.AggL1Base+0] = sumCores(func(i int) uint64 { return n.Cores[i].L1.Hits })
		sig[upc.AggL1Base+1] = sumCores(func(i int) uint64 { return n.Cores[i].L1.Misses })
		sig[upc.AggL2Base+0] = sumCores(func(i int) uint64 { return n.Cores[i].L2.Hits })
		sig[upc.AggL2Base+1] = sumCores(func(i int) uint64 { return n.Cores[i].L2.Misses })
		sig[upc.AggL2Base+2] = sumCores(func(i int) uint64 { return n.Cores[i].L2.Issued })
		sig[upc.AggL3Base+0] = l3Total(hits)
		sig[upc.AggL3Base+1] = l3Total(misses)
		sig[upc.AggL3Base+2] = l3Total(writebacks)
		sig[upc.AggSnoopBase+0] = sumCores(func(i int) uint64 { return n.Cores[i].Snoop.Requests })
		sig[upc.AggSnoopBase+1] = sumCores(func(i int) uint64 { return n.Cores[i].Snoop.Filtered })
		sig[upc.AggSnoopBase+2] = sumCores(func(i int) uint64 { return n.Cores[i].Snoop.Invalidates })
		sig[upc.AggL3PfBase] = ptr(&n.L3PrefetchIssued)
		sig[upc.AggDDRBase+0] = ddrReads
		sig[upc.AggDDRBase+1] = ddrWrites

	case upc.Mode3:
		// System side.
		sig[upc.SysCollectiveBase+0] = ptr(&n.Collective.Bcasts)
		sig[upc.SysCollectiveBase+1] = ptr(&n.Collective.Reduces)
		sig[upc.SysCollectiveBase+2] = ptr(&n.Collective.Barriers)
		sig[upc.SysCollectiveBase+3] = ptr(&n.Collective.Bytes)
		sig[upc.SysTorusBase+0] = ptr(&n.Torus.SendPackets)
		sig[upc.SysTorusBase+1] = ptr(&n.Torus.RecvPackets)
		sig[upc.SysTorusBase+2] = ptr(&n.Torus.SendBytes)
		sig[upc.SysTorusBase+3] = ptr(&n.Torus.RecvBytes)
		sig[upc.SysTorusBase+4] = ptr(&n.Torus.Hops)
		sig[upc.SysL3Base+0] = l3Total(hits)
		sig[upc.SysL3Base+1] = l3Total(misses)
		sig[upc.SysL3Base+2] = l3Total(writebacks)
		sig[upc.SysDDRBase+0] = ddrReads
		sig[upc.SysDDRBase+1] = ddrWrites
		for c := 0; c < NumCores; c++ {
			sig[upc.SysCyclesBase+c] = ptr(&n.Cores[c].Cycles)
		}
		sig[upc.SysL3PfBase] = ptr(&n.L3PrefetchIssued)
	}
}
