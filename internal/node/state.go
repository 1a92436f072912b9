package node

import "bgpsim/internal/statehash"

// State capture for the epoch memo (internal/mpi): the node walks its
// cores, shared L3 banks, memory-side L3 prefetch engine, DDR traffic
// counters and network-interface counters.
//
// Deliberately left out:
//   - The UPC unit: its registers only change at counter-library calls
//     (Start/Stop/Clear), which happen outside memoized epochs; its counter
//     values are sampled deltas of the free-running totals walked here.
//   - The active-core set: it is derived from the scheduler's rank
//     statuses, which the MPI layer re-establishes itself at every epoch
//     boundary.
//   - The l3pfWant scratch buffer, dead between accesses.

// State walks the node's state window.
func (n *Node) State(w *statehash.Walk) {
	for _, c := range n.Cores {
		c.State(w)
	}
	for _, b := range n.L3 {
		if b != nil {
			b.State(w)
		}
	}
	if n.l3pf != nil {
		n.l3pf.State(w)
	}
	w.U64(&n.L3PrefetchIssued)
	for _, ctl := range n.DDR {
		w.U64(&ctl.ReadLines)
		w.U64(&ctl.WriteLines)
	}
	t := n.Torus
	w.U64(&t.SendPackets)
	w.U64(&t.SendBytes)
	w.U64(&t.RecvPackets)
	w.U64(&t.RecvBytes)
	w.U64(&t.Hops)
	c := n.Collective
	w.U64(&c.Bcasts)
	w.U64(&c.Reduces)
	w.U64(&c.Barriers)
	w.U64(&c.Bytes)
	// Last, so a window recorded before the counter existed is this one
	// without its final word.
	w.U64(&n.L3Evictions)
}

// WriteClocks restores only the core clocks from a window of the node. The
// epoch memo replays an epoch into its state vector and defers the full
// statehash.Write; the clocks are what the rank scheduler orders dispatches
// by in the meantime. Each core's clock is the first word of its window.
func (n *Node) WriteClocks(src []uint64) {
	for i, c := range n.Cores {
		c.Cycles = src[i*n.coreLen]
	}
}
