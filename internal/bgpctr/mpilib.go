package bgpctr

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bgpsim/internal/mpi"
	"bgpsim/internal/upc"
)

// This file is the library's MPI integration (§IV): linking the
// instrumented MPI library folds Initialize+Start into MPI_Init and
// Stop+Finalize into MPI_Finalize, so applications are instrumented
// without any source change.

// WholeAppSet is the set number the MPI integration brackets the entire
// application with.
const WholeAppSet = 0

// DefaultMode returns the counter mode the library programs on a node:
// the node-aggregate mode on even-numbered node cards and the system mode
// on odd ones, so one job run monitors 512 of the 1024 events.
func DefaultMode(nodeID int) upc.Mode {
	if nodeID%2 == 0 {
		return upc.Mode2
	}
	return upc.Mode3
}

// Instrument runs the job with the counter library linked in. One session
// is created per node (by the first rank to reach MPI_Init there, acting
// as the node's monitoring thread); the whole application is bracketed as
// set 0; the last rank to leave on each node stops counting and finalizes
// the node's dump. The dumps are returned in node order; WriteDumps stores
// them as files.
func Instrument(j *mpi.Job, body func(*mpi.Rank)) ([]*Dump, error) {
	return InstrumentRegions(j, func(r *mpi.Rank, _ *Session) { body(r) })
}

// InstrumentRegions is Instrument for bodies that bracket their own code
// regions with additional sets: the body receives its node's session and
// may call Start/Stop with set numbers other than WholeAppSet.
func InstrumentRegions(j *mpi.Job, body func(*mpi.Rank, *Session)) ([]*Dump, error) {
	// The session and dump tables are host-side bookkeeping shared by all
	// rank closures, and every rank body runs on its own goroutine. The
	// scheduler dispatches them one at a time, but the tables are
	// mutex-guarded so their safety is local to this function rather than
	// a property of how mpi hands control between goroutines. Session
	// operations themselves touch only the rank's own node, and the mutex
	// never perturbs simulated state.
	var mu sync.Mutex
	nodes := len(j.Machine().Nodes)
	sessions := make([]*Session, nodes)
	remaining := make([]int, nodes)
	dumps := make([]*Dump, nodes)
	var failure error

	for _, info := range j.Placement() {
		remaining[info.NodeID]++
	}

	err := j.Run(func(r *mpi.Rank) {
		nodeID := r.NodeID()
		mu.Lock()
		s := sessions[nodeID]
		mu.Unlock()
		if s == nil {
			// MPI_Init: the first rank on the node becomes its
			// monitoring thread.
			s = Initialize(r.Node(), r.CoreID(), DefaultMode(nodeID))
			// Counter-library calls read UPC state the epoch memo's
			// machine vector excludes; the hook tells the memo.
			// Whole-application bracketing lands outside every epoch
			// (before the first collective, after the last), where
			// MarkExternal is free.
			s.SetExternalHook(j.MarkExternal)
			mu.Lock()
			sessions[nodeID] = s
			mu.Unlock()
			s.Start(WholeAppSet)
		}
		body(r, s)
		// MPI_Finalize: the last rank to leave finalizes the node's dump.
		mu.Lock()
		remaining[nodeID]--
		doneNode := remaining[nodeID] == 0
		mu.Unlock()
		if doneNode {
			s.Stop(WholeAppSet)
			d, err := s.Finalize()
			mu.Lock()
			dumps[nodeID] = d
			if err != nil && failure == nil {
				failure = err
			}
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	if failure != nil {
		return nil, failure
	}
	// Nodes no rank was placed on hold no session and write no dump.
	out := dumps[:0]
	for _, d := range dumps {
		if d != nil {
			out = append(out, d)
		}
	}
	return out, nil
}

// DumpFileName is the name of node id's dump file in a dump directory.
func DumpFileName(id int) string { return fmt.Sprintf("node%04d.bgpc", id) }

// WriteDumps writes each dump into dir as its node's file (DumpFileName),
// in the binary format of Dump.Append.
func WriteDumps(dir string, dumps []*Dump) error {
	for _, d := range dumps {
		name := filepath.Join(dir, DumpFileName(d.NodeID))
		if err := os.WriteFile(name, d.Append(nil), 0o644); err != nil {
			return fmt.Errorf("bgpctr: writing %s: %w", name, err)
		}
	}
	return nil
}
