// Package faults is a deterministic, seeded fault injector for the sweep
// orchestration layer. Long simulation campaigns must survive a panicking
// task, an interrupted worker and a corrupted dump on disk, and every one
// of those recovery paths needs to be exercisable in CI, byte-for-byte
// reproducibly. The injector provides exactly that: faults are armed per run
// key, and corruption draws from seeded streams that are completely separate
// from the simulation's own RNGs (package rng streams derived from the
// injector seed, never from run state), so arming a fault schedule perturbs
// *when runs fail*, never *what runs compute*.
//
// The injector knows three fault kinds, matching the sweep layer's recovery
// machinery:
//
//	Panic       — the task panics (exercises per-run panic isolation)
//	Stall       — the attempt blocks until its context ends (holds a run in
//	              flight, for interruption and shutdown tests)
//	CorruptDump — the run completes but its persisted dump bytes are mutated
//
// Determinism contract: the fault drawn for (key, attempt) and the
// corruption applied for (seed, key, bytes) depend only on those inputs, not
// on worker scheduling or call order, so a chaos run replays exactly.
package faults

import (
	"fmt"
	"sync"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// None means no fault: the attempt proceeds normally.
	None Kind = iota
	// Panic makes the attempt panic.
	Panic
	// Stall makes the attempt block until its context ends: the run stays
	// in flight until the sweep or the server is cancelled.
	Stall
	// CorruptDump lets the run complete but mutates its dump bytes on the
	// persistence write path, so checkpoint validation must catch it.
	CorruptDump
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case CorruptDump:
		return "corrupt-dump"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event records one injected fault, for test assertions and debugging.
type Event struct {
	// Key is the run key the fault fired on.
	Key string
	// Attempt is the zero-based attempt number.
	Attempt int
	// Kind is the injected fault kind.
	Kind Kind
}

// Injector holds a per-run-key fault schedule. A nil *Injector is valid and
// injects nothing, so callers never need to special-case the disabled path.
// All methods are safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	seed    uint64
	plan    map[string][]Kind
	attempt map[string]int
	log     []Event
}

// New returns an empty injector whose corruption streams derive from seed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:    seed,
		plan:    make(map[string][]Kind),
		attempt: make(map[string]int),
	}
}

// Arm appends fault kinds for successive attempts of key: the first attempt
// draws the first kind, the next attempt (a resumed sweep, a resubmitted
// job) the second, and so on; attempts beyond the armed list proceed
// fault-free.
func (in *Injector) Arm(key string, kinds ...Kind) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.plan[key] = append(in.plan[key], kinds...)
	in.mu.Unlock()
}

// Next consumes and returns the fault for key's next attempt, advancing the
// per-key attempt counter. Unarmed keys and exhausted schedules return None.
// A nil injector always returns None.
func (in *Injector) Next(key string) Kind {
	if in == nil {
		return None
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.attempt[key]
	in.attempt[key] = a + 1
	kinds := in.plan[key]
	if a >= len(kinds) {
		return None
	}
	k := kinds[a]
	if k != None {
		in.log = append(in.log, Event{Key: key, Attempt: a, Kind: k})
	}
	return k
}

// Log returns a copy of the injected-fault events so far, in injection
// order.
func (in *Injector) Log() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.log...)
}
