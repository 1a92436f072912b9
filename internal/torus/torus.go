// Package torus models the Blue Gene/P 3-D torus network: the main
// point-to-point data network connecting every compute node to its six
// nearest neighbours in a wrapped 3-D mesh. The model charges
// dimension-ordered-routing hop latency plus payload serialization, and
// maintains the per-node interface counters (packets, bytes, hops) that the
// UPC unit exposes as network events.
package torus

import "fmt"

// PacketBytes is the maximum torus packet payload.
const PacketBytes = 256

// Config holds the torus timing parameters in core cycles.
type Config struct {
	// HopLatency is the router traversal cost per hop.
	HopLatency uint64
	// CyclesPerByte is the link serialization cost (links run at
	// 425 MB/s against an 850 MHz core: 2 cycles per byte).
	CyclesPerByte uint64
	// InjectionOverhead is the fixed software+DMA cost to inject a
	// message.
	InjectionOverhead uint64
}

// DefaultConfig returns Blue Gene/P-like torus timing.
func DefaultConfig() Config {
	return Config{HopLatency: 54, CyclesPerByte: 2, InjectionOverhead: 2000}
}

// Iface is one node's torus network interface with its event counters.
type Iface struct {
	// SendPackets and SendBytes count injected traffic.
	SendPackets, SendBytes uint64
	// RecvPackets and RecvBytes count received traffic.
	RecvPackets, RecvBytes uint64
	// Hops accumulates the hop count of every received packet.
	Hops uint64
}

// Network is a wrapped 3-D mesh of the given dimensions.
type Network struct {
	dims   [3]int
	cfg    Config
	ifaces []*Iface
}

// New creates an x × y × z torus. Each dimension must be positive.
func New(x, y, z int, cfg Config) *Network {
	if x <= 0 || y <= 0 || z <= 0 {
		panic(fmt.Sprintf("torus: invalid dimensions %d×%d×%d", x, y, z))
	}
	n := &Network{dims: [3]int{x, y, z}, cfg: cfg}
	n.ifaces = make([]*Iface, x*y*z)
	for i := range n.ifaces {
		n.ifaces[i] = &Iface{}
	}
	return n
}

// NumNodes returns the number of nodes in the torus.
func (n *Network) NumNodes() int { return len(n.ifaces) }

// Iface returns node's network interface.
func (n *Network) Iface(node int) *Iface { return n.ifaces[node] }

// Coord maps a node id to its (x, y, z) coordinate; node ids enumerate the
// torus in x-major order.
func (n *Network) Coord(node int) (x, y, z int) {
	x = node % n.dims[0]
	y = node / n.dims[0] % n.dims[1]
	z = node / (n.dims[0] * n.dims[1])
	return
}

// NodeAt maps a coordinate to a node id.
func (n *Network) NodeAt(x, y, z int) int {
	return x + n.dims[0]*(y+n.dims[1]*z)
}

// HopCount returns the dimension-ordered-routing distance between two
// nodes, using the shorter way around each wrapped dimension.
func (n *Network) HopCount(a, b int) int {
	ax, ay, az := n.Coord(a)
	bx, by, bz := n.Coord(b)
	return wrapDist(ax, bx, n.dims[0]) + wrapDist(ay, by, n.dims[1]) + wrapDist(az, bz, n.dims[2])
}

func wrapDist(a, b, dim int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := dim - d; w < d {
		d = w
	}
	return d
}

// Transfer sends bytes from src to dst, charging counters on both
// interfaces and returning the end-to-end latency in cycles. The sharers
// argument is the number of ranks concurrently driving the source node's
// links (virtual-node mode makes four ranks share one interface), which
// scales the serialization cost.
func (n *Network) Transfer(src, dst, bytes, sharers int) uint64 {
	if bytes < 0 {
		panic("torus: negative transfer size")
	}
	if sharers < 1 {
		sharers = 1
	}
	hops := n.HopCount(src, dst)
	packets := uint64((bytes + PacketBytes - 1) / PacketBytes)
	if packets == 0 {
		packets = 1 // zero-byte messages still move a header packet
	}
	s, d := n.ifaces[src], n.ifaces[dst]
	s.SendPackets += packets
	s.SendBytes += uint64(bytes)
	d.RecvPackets += packets
	d.RecvBytes += uint64(bytes)
	d.Hops += packets * uint64(hops)

	latency := n.cfg.InjectionOverhead +
		n.cfg.HopLatency*uint64(hops) +
		n.cfg.CyclesPerByte*uint64(bytes)*uint64(sharers)
	return latency
}
