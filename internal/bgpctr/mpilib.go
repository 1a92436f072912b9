package bgpctr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// set 0; the last rank to leave on each node stops counting and dumps the
// node's binary file.
//
// When dir is non-empty, per-node files named nodeNNNN.bgpc are written
// there. The decoded dumps are returned either way, sorted by node id.
func Instrument(j *mpi.Job, dir string, body func(*mpi.Rank)) ([]*Dump, error) {
	return InstrumentRegions(j, dir, func(r *mpi.Rank, _ *Session) { body(r) })
}

// InstrumentRegions is Instrument for bodies that bracket their own code
// regions with additional sets: the body receives its node's session and
// may call Start/Stop with set numbers other than WholeAppSet.
func InstrumentRegions(j *mpi.Job, dir string, body func(*mpi.Rank, *Session)) ([]*Dump, error) {
	// The session/blob maps are host-side bookkeeping shared by all rank
	// closures, and every rank body runs on its own goroutine. The
	// scheduler dispatches them one at a time, but the maps are
	// mutex-guarded so their safety is local to this function rather than
	// a property of how mpi hands control between goroutines. Session
	// operations themselves touch only the rank's own node, and the mutex
	// never perturbs simulated state.
	var mu sync.Mutex
	sessions := make(map[int]*Session)
	remaining := make(map[int]int)
	blobs := make(map[int][]byte)
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
		// MPI_Finalize: the last rank to leave dumps the node file.
		mu.Lock()
		remaining[nodeID]--
		doneNode := remaining[nodeID] == 0
		mu.Unlock()
		if doneNode {
			s.Stop(WholeAppSet)
			var buf bytes.Buffer
			if err := s.Finalize(&buf); err != nil {
				mu.Lock()
				if failure == nil {
					failure = err
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			blobs[nodeID] = buf.Bytes()
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	if failure != nil {
		return nil, failure
	}

	nodeIDs := make([]int, 0, len(blobs))
	for id := range blobs {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)

	dumps := make([]*Dump, 0, len(nodeIDs))
	for _, id := range nodeIDs {
		blob := blobs[id]
		if dir != "" {
			name := filepath.Join(dir, fmt.Sprintf("node%04d.bgpc", id))
			if err := os.WriteFile(name, blob, 0o644); err != nil {
				return nil, fmt.Errorf("bgpctr: writing %s: %w", name, err)
			}
		}
		d, err := DecodeDump(blob)
		if err != nil {
			return nil, fmt.Errorf("bgpctr: node %d dump corrupt: %w", id, err)
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}
