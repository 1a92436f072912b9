package node

// State capture for the epoch memo (internal/mpi): the node flattens its
// cores, shared L3 banks, memory-side L3 prefetch engine, DDR traffic
// counters and network-interface counters into a []uint64 window.
//
// Deliberately excluded:
//   - The UPC unit: its registers only change at counter-library calls
//     (Start/Stop/Clear), which happen outside memoized epochs; its counter
//     values are sampled deltas of the free-running totals captured here.
//   - The active-core set: it is derived from the scheduler's rank
//     statuses, which the MPI layer re-establishes itself at every epoch
//     boundary.
//   - The l3pfWant scratch buffer, dead between accesses.

// StateLen returns the node's state window size in words.
func (n *Node) StateLen() int {
	w := 0
	for _, c := range n.Cores {
		w += c.StateLen()
	}
	for _, b := range n.L3 {
		if b != nil {
			w += b.StateLen()
		}
	}
	if n.l3pf != nil {
		w += n.l3pf.StateLen()
	}
	w++                 // L3PrefetchIssued
	w += 2 * len(n.DDR) // ReadLines/WriteLines per controller
	w += 5              // torus interface counters
	w += 4              // collective interface counters
	return w
}

// ReadState flattens the node into dst and returns the words written.
func (n *Node) ReadState(dst []uint64) int {
	i := 0
	for _, c := range n.Cores {
		i += c.ReadState(dst[i:])
	}
	for _, b := range n.L3 {
		if b != nil {
			i += b.ReadState(dst[i:])
		}
	}
	if n.l3pf != nil {
		i += n.l3pf.ReadState(dst[i:])
	}
	dst[i] = n.L3PrefetchIssued
	i++
	for _, ctl := range n.DDR {
		dst[i] = ctl.ReadLines
		dst[i+1] = ctl.WriteLines
		i += 2
	}
	dst[i] = n.Torus.SendPackets
	dst[i+1] = n.Torus.SendBytes
	dst[i+2] = n.Torus.RecvPackets
	dst[i+3] = n.Torus.RecvBytes
	dst[i+4] = n.Torus.Hops
	i += 5
	dst[i] = n.Collective.Bcasts
	dst[i+1] = n.Collective.Reduces
	dst[i+2] = n.Collective.Barriers
	dst[i+3] = n.Collective.Bytes
	return i + 4
}

// WriteState restores a window read with ReadState.
func (n *Node) WriteState(src []uint64) int {
	i := 0
	for _, c := range n.Cores {
		i += c.WriteState(src[i:])
	}
	for _, b := range n.L3 {
		if b != nil {
			i += b.WriteState(src[i:])
		}
	}
	if n.l3pf != nil {
		i += n.l3pf.WriteState(src[i:])
	}
	n.L3PrefetchIssued = src[i]
	i++
	for _, ctl := range n.DDR {
		ctl.ReadLines = src[i]
		ctl.WriteLines = src[i+1]
		i += 2
	}
	n.Torus.SendPackets = src[i]
	n.Torus.SendBytes = src[i+1]
	n.Torus.RecvPackets = src[i+2]
	n.Torus.RecvBytes = src[i+3]
	n.Torus.Hops = src[i+4]
	i += 5
	n.Collective.Bcasts = src[i]
	n.Collective.Reduces = src[i+1]
	n.Collective.Barriers = src[i+2]
	n.Collective.Bytes = src[i+3]
	return i + 4
}

// WriteClocks restores only the core clocks from a window read with
// ReadState. The epoch memo replays an epoch into its state vector and
// defers the full WriteState; the clocks are what the rank scheduler orders
// dispatches by in the meantime.
func (n *Node) WriteClocks(src []uint64) {
	i := 0
	for _, c := range n.Cores {
		c.WriteClock(src[i:])
		i += c.StateLen()
	}
}
