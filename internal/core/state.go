package core

import "bgpsim/internal/statehash"

// State capture for the epoch memo (internal/mpi): a core walks every
// mutable field that can influence future execution or counter reads — its
// clock, the free-running Mix and engine-route counters, and the full L1 /
// L2-prefetcher / snoop-filter state. The reusable want scratch buffer is
// dead between Exec calls and is left out.

// State walks the core's state window. The clock is its first word, which is
// where node.WriteClocks finds it.
func (c *Core) State(w *statehash.Walk) {
	w.U64(&c.Cycles)
	w.Words(c.Mix[:])
	w.Words(c.EngineRoutes[:])
	c.L1.State(w)
	c.L2.State(w)
	c.Snoop.State(w)
}

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
