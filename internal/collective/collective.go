// Package collective models the Blue Gene/P collective (tree) network and
// the dedicated barrier network. The collective network supports efficient
// broadcast and reduction across a partition in logarithmic depth; the
// barrier network provides a fast global interrupt/barrier. Both charge a
// latency to every participant and maintain per-node counters exposed
// through the UPC unit.
package collective

import "fmt"

// Config holds collective-network timing in core cycles.
type Config struct {
	// HopLatency is the tree-link traversal cost per level.
	HopLatency uint64
	// CyclesPerByte is the payload serialization cost per tree level.
	CyclesPerByte uint64
	// BarrierLatency is the fixed global-barrier network latency.
	BarrierLatency uint64
	// SoftwareOverhead is the per-call library cost.
	SoftwareOverhead uint64
}

// DefaultConfig returns Blue Gene/P-like collective timing: ~0.8 µs tree
// traversal on a mid-size partition and a ~1.3 µs hardware barrier.
func DefaultConfig() Config {
	return Config{HopLatency: 120, CyclesPerByte: 1, BarrierLatency: 1100, SoftwareOverhead: 900}
}

// Iface is one node's collective-network interface counters.
type Iface struct {
	// Bcasts, Reduces and Barriers count operations this node took part
	// in; Bytes counts payload moved through the node.
	Bcasts, Reduces, Barriers, Bytes uint64
}

// Network is the collective network of a partition.
type Network struct {
	cfg    Config
	depth  uint64
	ifaces []*Iface
}

// New creates the collective network for numNodes nodes.
func New(numNodes int, cfg Config) *Network {
	if numNodes <= 0 {
		panic(fmt.Sprintf("collective: invalid node count %d", numNodes))
	}
	n := &Network{cfg: cfg, depth: treeDepth(numNodes)}
	n.ifaces = make([]*Iface, numNodes)
	for i := range n.ifaces {
		n.ifaces[i] = &Iface{}
	}
	return n
}

func treeDepth(nodes int) uint64 {
	var d uint64
	for span := 1; span < nodes; span *= 2 {
		d++
	}
	if d == 0 {
		d = 1
	}
	return d
}

// Iface returns node's interface.
func (n *Network) Iface(node int) *Iface { return n.ifaces[node] }

// Depth returns the tree depth of the partition.
func (n *Network) Depth() int { return int(n.depth) }

// Broadcast charges a broadcast of bytes touching the given nodes and
// returns its latency.
func (n *Network) Broadcast(nodes []int, bytes int) uint64 {
	for _, id := range nodes {
		i := n.ifaces[id]
		i.Bcasts++
		i.Bytes += uint64(bytes)
	}
	return n.cfg.SoftwareOverhead + n.depth*(n.cfg.HopLatency+n.cfg.CyclesPerByte*uint64(bytes))
}

// Reduce charges a reduction of bytes over the given nodes and returns its
// latency. Reductions combine data on the way up the tree, so the cost
// model matches Broadcast with the same depth.
func (n *Network) Reduce(nodes []int, bytes int) uint64 {
	for _, id := range nodes {
		i := n.ifaces[id]
		i.Reduces++
		i.Bytes += uint64(bytes)
	}
	return n.cfg.SoftwareOverhead + n.depth*(n.cfg.HopLatency+n.cfg.CyclesPerByte*uint64(bytes))
}

// Barrier charges a global barrier over the given nodes and returns its
// latency (the dedicated barrier network is depth-independent).
func (n *Network) Barrier(nodes []int) uint64 {
	for _, id := range nodes {
		n.ifaces[id].Barriers++
	}
	return n.cfg.SoftwareOverhead + n.cfg.BarrierLatency
}
