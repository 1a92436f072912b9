package core

import "bgpsim/internal/isa"

// State capture for the epoch memo (internal/mpi): a core flattens every
// mutable field that can influence future execution or counter reads —
// its clock, the free-running Mix and engine-route counters, and the full
// L1 / L2-prefetcher / snoop-filter state — into a []uint64 window. The
// reusable want scratch buffer is dead between Exec calls and is excluded.

// StateLen returns the core's state window size in words.
func (c *Core) StateLen() int {
	return 1 + int(isa.NumClasses) + int(NumRoutes) +
		c.L1.StateLen() + c.L2.StateLen() + c.Snoop.StateLen()
}

// ReadState flattens the core into dst and returns the words written.
func (c *Core) ReadState(dst []uint64) int {
	dst[0] = c.Cycles
	i := 1
	for k := 0; k < int(isa.NumClasses); k++ {
		dst[i] = c.Mix[k]
		i++
	}
	for k := 0; k < int(NumRoutes); k++ {
		dst[i] = c.EngineRoutes[k]
		i++
	}
	i += c.L1.ReadState(dst[i:])
	i += c.L2.ReadState(dst[i:])
	i += c.Snoop.ReadState(dst[i:])
	return i
}

// WriteState restores a window read with ReadState.
func (c *Core) WriteState(src []uint64) int {
	c.Cycles = src[0]
	i := 1
	for k := 0; k < int(isa.NumClasses); k++ {
		c.Mix[k] = src[i]
		i++
	}
	for k := 0; k < int(NumRoutes); k++ {
		c.EngineRoutes[k] = src[i]
		i++
	}
	i += c.L1.WriteState(src[i:])
	i += c.L2.WriteState(src[i:])
	i += c.Snoop.WriteState(src[i:])
	return i
}

// WriteClock restores only the cycle clock from a window read with
// ReadState: all of the core the rank scheduler reads between cuts.
func (c *Core) WriteClock(src []uint64) { c.Cycles = src[0] }

// RngState returns the state's address-draw RNG position. At an epoch
// boundary every bound ExecState is either freshly bound or fully executed
// (Exec runs to completion within one MPI op), so the RNG word is the only
// per-state value that varies between boundaries.
func (st *ExecState) RngState() uint64 { return st.rng.State() }

// SkipToEnd marks the state fully executed with its RNG advanced to
// rngState, exactly as running the program to completion would leave it.
// The epoch memo uses it to replay an Exec without executing: the next
// live execution observes Done() and rewinds, precisely as after a live
// run.
func (st *ExecState) SkipToEnd(rngState uint64) {
	st.done = true
	st.rng.SetState(rngState)
}
