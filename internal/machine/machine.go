// Package machine assembles Blue Gene/P compute nodes into a partition: a
// set of nodes wired by a 3-D torus and a collective network, booted in one
// of the four node operating modes (SMP/1 thread, SMP/4 threads, Dual, and
// Virtual Node Mode — the table of the paper's Figure 3).
//
// A partition is booted with a node configuration; the paper's `svchost`
// boot options (such as reducing the L3 to 2 MB for the fair SMP/1
// comparison of §VIII) correspond to fields of Params here.
package machine

import (
	"fmt"
	"strings"

	"bgpsim/internal/collective"
	"bgpsim/internal/node"
	"bgpsim/internal/torus"
)

// OpMode is the node operating mode, reproducing Figure 3.
type OpMode uint8

// The four operating modes of a Blue Gene/P node.
const (
	// SMP1 runs one process with one thread per node.
	SMP1 OpMode = iota
	// SMP4 runs one process with four threads per node.
	SMP4
	// Dual runs two processes with two threads each per node.
	Dual
	// VNM (virtual node mode) runs four single-threaded processes per
	// node, one per core.
	VNM
)

var opModeNames = [...]string{SMP1: "SMP/1", SMP4: "SMP/4", Dual: "DUAL", VNM: "VNM"}

// String returns the mode name as used in the paper.
func (m OpMode) String() string {
	if int(m) < len(opModeNames) {
		return opModeNames[m]
	}
	return fmt.Sprintf("OpMode(%d)", uint8(m))
}

// ParseMode parses an operating-mode spelling: the paper's names
// ("SMP/1", "SMP/4", "DUAL", "VNM") or their slash-less and short forms, in
// any case.
func ParseMode(s string) (OpMode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SMP1", "SMP/1", "SMP":
		return SMP1, nil
	case "SMP4", "SMP/4":
		return SMP4, nil
	case "DUAL":
		return Dual, nil
	case "VNM", "VN":
		return VNM, nil
	}
	return 0, fmt.Errorf("unknown operating mode %q", s)
}

// RanksPerNode returns the number of MPI processes per node in this mode.
func (m OpMode) RanksPerNode() int {
	switch m {
	case Dual:
		return 2
	case VNM:
		return 4
	default:
		return 1
	}
}

// ThreadsPerRank returns the number of hardware threads available to each
// process in this mode.
func (m OpMode) ThreadsPerRank() int {
	switch m {
	case SMP4:
		return 4
	case Dual:
		return 2
	default:
		return 1
	}
}

// CoreForSlot maps a process slot on a node to the core it is pinned to.
func (m OpMode) CoreForSlot(slot int) int {
	if slot < 0 || slot >= m.RanksPerNode() {
		panic(fmt.Sprintf("machine: slot %d out of range for %v", slot, m))
	}
	if m == Dual {
		return slot * 2 // processes on cores 0 and 2, a core pair each
	}
	return slot
}

// Params configures a partition boot.
type Params struct {
	// Node is the per-node configuration (cache sizes, timings). The
	// L3Bytes field is the paper's L3-size boot option.
	Node node.Params
	// Torus is the torus network timing.
	Torus torus.Config
	// Collective is the tree/barrier network timing.
	Collective collective.Config
}

// DefaultParams returns the production partition configuration.
func DefaultParams() Params {
	return Params{
		Node:       node.DefaultParams(),
		Torus:      torus.DefaultConfig(),
		Collective: collective.DefaultConfig(),
	}
}

// Machine is a booted partition.
type Machine struct {
	params Params
	mode   OpMode

	// Nodes are the partition's compute nodes.
	Nodes []*node.Node
	// Torus is the partition's torus network.
	Torus *torus.Network
	// Collective is the partition's tree/barrier network.
	Collective *collective.Network
}

// New boots a partition of numNodes nodes in the given operating mode.
// The torus dimensions are chosen as the most cubic factorization of
// numNodes.
func New(numNodes int, mode OpMode, params Params) *Machine {
	if numNodes <= 0 {
		panic(fmt.Sprintf("machine: invalid node count %d", numNodes))
	}
	x, y, z := TorusDims(numNodes)
	m := &Machine{
		params:     params,
		mode:       mode,
		Torus:      torus.New(x, y, z, params.Torus),
		Collective: collective.New(numNodes, params.Collective),
	}
	m.Nodes = make([]*node.Node, numNodes)
	for i := range m.Nodes {
		m.Nodes[i] = node.New(i, params.Node, m.Torus.Iface(i), m.Collective.Iface(i))
	}
	return m
}

// TorusDims returns the most cubic x×y×z factorization of n with x ≥ y ≥ z.
func TorusDims(n int) (x, y, z int) {
	best := [3]int{n, 1, 1}
	bestScore := n - 1 // max-min dimension spread
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if score := c - a; score < bestScore {
				bestScore = score
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Mode returns the partition's operating mode.
func (m *Machine) Mode() OpMode { return m.mode }

// Params returns the boot configuration.
func (m *Machine) Params() Params { return m.params }

// NumNodes returns the partition size.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// MaxRanks returns the number of MPI processes the partition can host in
// its operating mode.
func (m *Machine) MaxRanks() int { return len(m.Nodes) * m.mode.RanksPerNode() }

// Place maps a rank to its node and core under the partition's mode.
// Ranks fill nodes in consecutive blocks, matching the default Blue Gene/P
// XYZT mapping where co-located ranks are neighbours in rank order.
func (m *Machine) Place(rank int) (nodeID, coreID int) {
	rpn := m.mode.RanksPerNode()
	nodeID = rank / rpn
	coreID = m.mode.CoreForSlot(rank % rpn)
	return
}
