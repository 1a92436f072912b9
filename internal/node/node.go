// Package node models one Blue Gene/P compute ASIC: a system-on-chip with
// four PowerPC 450 cores (each with private L1 and prefetching L2), a
// shared, banked, size-configurable L3 cache, two DDR2 memory controllers,
// the torus and collective network interfaces, and the Universal
// Performance Counter unit wired to all of them.
//
// The node implements core.Lower — it is the shared memory system below the
// private caches — and builds the UPC signal tables that realize the event
// catalog of the upc package.
package node

import (
	"fmt"

	"bgpsim/internal/cache"
	"bgpsim/internal/collective"
	"bgpsim/internal/core"
	"bgpsim/internal/isa"
	"bgpsim/internal/memory"
	"bgpsim/internal/statehash"
	"bgpsim/internal/torus"
	"bgpsim/internal/upc"
)

// NumCores is the number of processor cores per node.
const NumCores = 4

// NumL3Banks is the number of L3 banks / DDR controllers; lines interleave
// across banks by address.
const NumL3Banks = 2

// Params configures a node.
type Params struct {
	// Core holds the per-core timing and private-cache configuration.
	Core core.Params
	// L3Bytes is the total shared L3 capacity. Zero disables the L3
	// entirely (all L2 misses go to DRAM), matching the paper's 0 MB
	// configuration point.
	L3Bytes int
	// L3Ways is the L3 associativity.
	L3Ways int
	// L3HitLatency is the unloaded L3 hit latency in cycles.
	L3HitLatency uint64
	// L3SharerPenalty is the extra hit latency per additional active
	// core (bank port contention).
	L3SharerPenalty uint64
	// L3PrefetchDepth enables the memory-side L3 prefetch engine: on a
	// demand miss whose stream the engine has locked, the next depth
	// lines are fetched into the L3. Zero (the default) disables it —
	// the knob behind the paper's §IX "prefetch amount in L3" study.
	L3PrefetchDepth int
	// DDR is the memory-controller timing.
	DDR memory.Config
}

// DefaultParams returns the production Blue Gene/P node configuration:
// 8 MB of shared L3 in two banks.
func DefaultParams() Params {
	return Params{
		Core:            core.DefaultParams(),
		L3Bytes:         8 << 20,
		L3Ways:          8,
		L3HitLatency:    46,
		L3SharerPenalty: 5,
		DDR:             memory.DefaultConfig(),
	}
}

// Node is one compute ASIC.
type Node struct {
	id     int
	params Params

	// Cores are the four processor cores.
	Cores [NumCores]*core.Core
	// L3 holds the shared cache banks; entries are nil when the L3 is
	// disabled.
	L3 [NumL3Banks]*cache.Cache
	// DDR holds the two memory controllers.
	DDR [NumL3Banks]*memory.Controller
	// UPC is the node's Universal Performance Counter unit.
	UPC *upc.Unit
	// Torus is the node's torus interface (set by the machine).
	Torus *torus.Iface
	// Collective is the node's tree-network interface (set by the
	// machine).
	Collective *collective.Iface

	l3pf *cache.StreamDetector
	// l3pfWant is the reusable proposal buffer handed to the L3 prefetch
	// engine on every L3 demand miss.
	l3pfWant []uint64
	// L3PrefetchIssued counts lines the L3 engine fetched from DRAM.
	L3PrefetchIssued uint64

	active  [NumCores]bool
	nactive int

	// coreLen is one core's state-window length: WriteClocks steps by it.
	coreLen int
}

// New creates a node. The torus and collective interfaces must be attached
// by the caller (the machine) before UPC counters for them read non-zero;
// nil interfaces are tolerated and read zero.
func New(id int, params Params, tor *torus.Iface, col *collective.Iface) *Node {
	n := &Node{id: id, params: params, Torus: tor, Collective: col}
	if tor == nil {
		n.Torus = &torus.Iface{}
	}
	if col == nil {
		n.Collective = &collective.Iface{}
	}
	if params.L3Bytes > 0 {
		bankBytes := params.L3Bytes / NumL3Banks
		sets, ways := l3Geometry(bankBytes, params.L3Ways)
		if sets > 1 {
			sets /= 2 // DESIGN.md Known deviation 5: a bank holds only its parity's sets
		}
		for b := 0; b < NumL3Banks; b++ {
			n.L3[b] = cache.New(cache.Config{
				Name:      fmt.Sprintf("L3.%d.%d", id, b),
				SizeBytes: sets * ways * core.LineBytes,
				LineBytes: core.LineBytes,
				Ways:      ways,
				WriteBack: true,
			})
		}
	}
	if params.L3PrefetchDepth > 0 && params.L3Bytes > 0 {
		// A memory-side engine sees the interleaved miss stream of all
		// cores and locks onto wider strides than the per-core L2s.
		n.l3pf = cache.NewStreamDetector(8, 16, params.L3PrefetchDepth)
		n.l3pfWant = make([]uint64, 0, n.l3pf.Depth())
	}
	for b := 0; b < NumL3Banks; b++ {
		n.DDR[b] = memory.NewController(b, params.DDR)
	}
	for c := 0; c < NumCores; c++ {
		n.Cores[c] = core.New(c, params.Core, n)
	}
	n.coreLen = statehash.Len(n.Cores[0])
	n.UPC = upc.New(n.buildSignals())
	return n
}

// l3Geometry derives a bank geometry for an arbitrary capacity: the set
// count must be a power of two (address-bit indexing), so capacities whose
// line count is not ways×2^k widen the associativity instead — the 3 MB
// bank of a 6 MB L3 requested at 8 ways becomes 2048 sets × 12 ways,
// keeping the exact capacity (the paper sweeps the L3 in 2 MB steps,
// including 6 MB). New then halves the set count (Known deviation 5).
func l3Geometry(bankBytes, ways int) (int, int) {
	lines := bankBytes / core.LineBytes
	sets := 1
	for sets*2*ways <= lines {
		sets *= 2
	}
	return sets, lines / sets
}

// ID returns the node id within its partition.
func (n *Node) ID() int { return n.id }

// Params returns the node configuration.
func (n *Node) Params() Params { return n.params }

// SetActive marks whether a core is currently running a rank; the count of
// active cores drives the shared-resource contention model.
func (n *Node) SetActive(coreID int, active bool) {
	if n.active[coreID] == active {
		return
	}
	n.active[coreID] = active
	if active {
		n.nactive++
	} else {
		n.nactive--
	}
}

// ActiveCores returns the number of cores currently running ranks.
func (n *Node) ActiveCores() int { return n.nactive }

// bank returns the L3 bank (and DDR controller) of addr's line, selected
// by address bit 7, and addr as that bank sees it: with the bank-select bit
// removed, so the bank's set index starts at the next address bit and a
// halved bank's set i is set 2i+bank of the full-geometry bank, holding the
// same tags.
func (n *Node) bank(addr uint64) (int, uint64) {
	return int(addr >> 7 & (NumL3Banks - 1)), addr>>8<<7 | addr&127
}

// writeBackVictim posts the DDR write of the dirty line an L3 miss in bank
// b displaced (the victim's address is bank-local; the bank is the
// controller); a hit, or a miss with a clean or no victim, writes nothing.
// It is the one copy of this step on every L3 miss path and must stay
// within the inliner's budget (check with go build -gcflags=-m).
func (n *Node) writeBackVictim(b int, r cache.Result) {
	if r.VictimValid && r.VictimDirty {
		n.DDR[b].DMALines(1, false)
	}
}

// ReadLine implements core.Lower: a demand line fetch from L3/DRAM.
func (n *Node) ReadLine(coreID int, addr uint64) uint64 {
	active := n.ActiveCores()
	b, local := n.bank(addr)
	if l3 := n.L3[b]; l3 != nil {
		r := l3.Access(local, false)
		if r.Hit {
			lat := n.params.L3HitLatency
			if active > 1 {
				lat += n.params.L3SharerPenalty * uint64(active-1)
			}
			return lat
		}
		n.writeBackVictim(b, r)
		n.l3Prefetch(addr)
		return n.params.L3HitLatency + n.DDR[b].ReadLine(active)
	}
	return n.DDR[b].ReadLine(active)
}

// l3Prefetch feeds the L3 demand-miss stream to the memory-side prefetch
// engine and fetches its proposals from DRAM into the L3.
func (n *Node) l3Prefetch(addr uint64) {
	if n.l3pf == nil {
		return
	}
	want := n.l3pf.Observe(addr>>7, func(line uint64) bool {
		b, local := n.bank(line << 7)
		return n.L3[b].Contains(local)
	}, n.l3pfWant)
	for _, line := range want {
		b, local := n.bank(line << 7)
		r := n.L3[b].Access(local, false)
		if r.Hit {
			continue
		}
		n.writeBackVictim(b, r)
		n.DDR[b].PrefetchLine()
		n.L3PrefetchIssued++
	}
}

// snoop presents a write at addr to every other core's snoop filter;
// forwarded probes invalidate the line in that core's L1. Pass -1 as
// fromCore for DMA-originated writes.
func (n *Node) snoop(fromCore int, addr uint64) {
	for c := 0; c < NumCores; c++ {
		if c == fromCore {
			continue
		}
		cr := n.Cores[c]
		if cr.Snoop.Snoop(addr, 7) {
			if cr.L1.Invalidate(addr) {
				cr.Snoop.Invalidated()
			}
		}
	}
}

// WriteLine implements core.Lower: a dirty L1 victim arriving at L3. The
// write allocates in L3 (read-for-ownership traffic on a miss) and is
// posted, so the returned stall is only queue admission.
func (n *Node) WriteLine(coreID int, addr uint64) uint64 {
	n.snoop(coreID, addr)
	active := n.ActiveCores()
	b, local := n.bank(addr)
	if l3 := n.L3[b]; l3 != nil {
		r := l3.Access(local, true)
		if r.Hit {
			return 0
		}
		n.writeBackVictim(b, r)
		// Read-for-ownership fetch of the allocated line; posted.
		n.DDR[b].DMALines(1, true)
		return n.params.DDR.WritePenalty
	}
	return n.DDR[b].WriteLine(active)
}

// PrefetchLine implements core.Lower: an L2 stream-prefetch fill. The core
// does not stall; the traffic is charged where it lands.
func (n *Node) PrefetchLine(coreID int, addr uint64) {
	b, local := n.bank(addr)
	if l3 := n.L3[b]; l3 != nil {
		r := l3.Access(local, false)
		if r.Hit {
			return
		}
		n.writeBackVictim(b, r)
		n.DDR[b].PrefetchLine()
		return
	}
	n.DDR[b].PrefetchLine()
}

// DMATransfer charges network-DMA memory traffic of the given byte count:
// the torus DMA engine reads outbound payloads from DRAM and writes inbound
// payloads to DRAM, split across both controllers.
func (n *Node) DMATransfer(bytes uint64, fromMemory bool) {
	lines := (bytes + core.LineBytes - 1) / core.LineBytes
	half := lines / 2
	n.DDR[0].DMALines(lines-half, fromMemory)
	n.DDR[1].DMALines(half, fromMemory)
}

// DMADeliver models the L3 side of an inbound torus-DMA transfer: the
// reception DMA engine writes the payload to memory through the shared,
// memory-side L3, allocating the destination buffer's lines there and
// evicting application lines. In virtual-node mode a node absorbs four
// ranks' inbound traffic into one L3, which is part of the "cache
// interference" the paper blames for the super-proportional DDR-traffic
// growth of the all-to-all benchmarks (§VIII, Figure 12). The DRAM write
// itself is charged by the caller via DMATransfer.
func (n *Node) DMADeliver(bufAddr, bytes uint64) {
	for off := uint64(0); off < bytes; off += core.LineBytes {
		addr := bufAddr + off
		n.snoop(-1, addr)
		if n.L3[0] == nil {
			continue
		}
		b, local := n.bank(addr)
		n.writeBackVictim(b, n.L3[b].Access(local, false))
	}
}

// L3Copy models an intra-node message copy of the given byte count through
// the shared L3 (sender buffer at srcAddr, receiver buffer at dstAddr) and
// returns the cycle cost observed by the copying core. Lines that miss in
// L3 are fetched from DRAM.
func (n *Node) L3Copy(srcAddr, dstAddr, bytes uint64) uint64 {
	if n.L3[0] == nil {
		// No L3: the copy streams through DRAM.
		lines := (bytes + core.LineBytes - 1) / core.LineBytes
		n.DMATransfer(bytes, true)
		n.DMATransfer(bytes, false)
		return lines * (n.params.DDR.ReadLatency / 2)
	}
	var cycles uint64
	for off := uint64(0); off < bytes; off += core.LineBytes {
		for _, a := range [2]struct {
			addr  uint64
			write bool
		}{{srcAddr + off, false}, {dstAddr + off, true}} {
			if a.write {
				n.snoop(-1, a.addr)
			}
			b, local := n.bank(a.addr)
			r := n.L3[b].Access(local, a.write)
			if r.Hit {
				cycles += n.params.L3HitLatency / 2
				continue
			}
			n.writeBackVictim(b, r)
			n.DDR[b].DMALines(1, true)
			cycles += n.params.DDR.ReadLatency / 2
		}
	}
	return cycles
}

// DDRTrafficLines returns the total lines moved between L3 and DRAM.
func (n *Node) DDRTrafficLines() uint64 {
	return n.DDR[0].ReadLines + n.DDR[0].WriteLines + n.DDR[1].ReadLines + n.DDR[1].WriteLines
}

// NodeMix returns the merged dynamic instruction mix of all four cores.
func (n *Node) NodeMix() isa.Mix {
	var m isa.Mix
	for _, c := range n.Cores {
		m.Merge(&c.Mix)
	}
	return m
}
