// Package upc models the Universal Performance Counter unit of a Blue
// Gene/P compute node: 256 64-bit counters that can be configured in one of
// four counter modes, each exposing a different set of 256 hardware events
// (1024 monitorable events in total). All counters and configuration
// registers are memory-mapped; a per-counter 4-bit configuration field
// selects the count-event signalling mode and enables threshold interrupts,
// exactly as described in the paper's §III-A.
//
// Hardware event wires are modelled as sampling closures (Signal): each
// source unit (core, FPU, cache, DDR controller, network interface) exposes
// free-running totals, and the UPC computes counter values as deltas from
// the moment counting was enabled. This yields the same observable counter
// values as per-pulse counting and keeps the hot execution path free of
// per-event indirection.
package upc

import "fmt"

// NumCounters is the number of physical counters in the UPC unit.
const NumCounters = 256

// NumModes is the number of counter modes; each mode maps the 256 counters
// onto a different set of events.
const NumModes = 4

// NumEvents is the total monitorable event space (modes × counters).
const NumEvents = NumModes * NumCounters

// Mode selects which set of 256 events the unit counts.
type Mode uint8

// The four counter modes of the unit, as wired by the node (see the node
// package for the exact event maps):
const (
	// Mode0 exposes detailed per-event streams for processor units 0-1
	// plus the even L3 bank, DDR controller 0 and torus injection.
	Mode0 Mode = iota
	// Mode1 exposes processor units 2-3, the odd L3 bank, DDR controller
	// 1 and torus reception.
	Mode1
	// Mode2 exposes node-wide aggregates: per-class FP instruction
	// totals, cache totals, and per-core cycle counters. This is the
	// mode the interface library programs on even-numbered node cards.
	Mode2
	// Mode3 exposes the system side: collective network, torus detail,
	// and memory-system totals; programmed on odd-numbered node cards.
	Mode3
)

// String returns "BGP_UPC_MODE_n".
func (m Mode) String() string { return fmt.Sprintf("BGP_UPC_MODE_%d", m) }

// Counter-event signalling modes held in the low two configuration bits of
// each counter, mirroring the encodings listed in the paper.
const (
	// CfgLevelHigh counts cycles the event wire is high (encoding 00).
	CfgLevelHigh = 0x0
	// CfgEdgeRise counts low-to-high transitions (encoding 01).
	CfgEdgeRise = 0x1
	// CfgEdgeFall counts high-to-low transitions (encoding 10).
	CfgEdgeFall = 0x2
	// CfgLevelLow counts cycles the event wire is low (encoding 11).
	CfgLevelLow = 0x3
	// CfgIntEnable enables the threshold interrupt for the counter
	// (bit 2 of the configuration field).
	CfgIntEnable = 0x4
)

// Signal samples a free-running hardware event total. A nil Signal marks a
// reserved event slot that always reads zero.
type Signal func() uint64

// EventID identifies one of the 1024 monitorable events as mode*256+index.
type EventID uint16

// MakeEventID composes an EventID from a mode and counter index.
func MakeEventID(m Mode, index int) EventID {
	return EventID(int(m)*NumCounters + index)
}

// Mode returns the counter mode the event belongs to.
func (e EventID) Mode() Mode { return Mode(e / NumCounters) }

// Index returns the counter index of the event within its mode.
func (e EventID) Index() int { return int(e) % NumCounters }

// InterruptHandler is invoked when a counter with an enabled interrupt
// reaches its threshold. It runs synchronously during Poll.
type InterruptHandler func(counter int, value uint64)

// Unit is the Universal Performance Counter unit of one node.
type Unit struct {
	// build wires a mode's signal table; signals holds the tables built,
	// each on the mode's first sample.
	build   func(Mode, *[NumCounters]Signal)
	signals [NumModes]*[NumCounters]Signal

	mode    Mode
	running bool

	// base holds the sampled raw totals at the moment counting was last
	// enabled; accum holds counts captured across previous enable
	// windows (and direct register writes).
	base  [NumCounters]uint64
	accum [NumCounters]uint64

	config    [NumCounters]uint8
	threshold [NumCounters]uint64
	fired     [NumCounters]bool

	handler InterruptHandler
}

// New creates a UPC unit whose mode m counts the signals build(m, table)
// wires into an empty table. Slots left nil are reserved events reading
// zero. A mode's table is built when the unit first samples in that mode,
// so a node that counts in one mode, as the interface library programs it,
// builds one table.
func New(build func(Mode, *[NumCounters]Signal)) *Unit {
	return &Unit{build: build}
}

// SetInterruptHandler installs the threshold-interrupt handler.
func (u *Unit) SetInterruptHandler(h InterruptHandler) { u.handler = h }

// Mode returns the current counter mode.
func (u *Unit) Mode() Mode { return u.mode }

// Running reports whether the counters are currently counting.
func (u *Unit) Running() bool { return u.running }

// SetMode selects the counter mode. It panics if counting is running, since
// the hardware requires the unit to be stopped for reconfiguration.
func (u *Unit) SetMode(m Mode) {
	if u.running {
		panic("upc: SetMode while counting")
	}
	if m >= NumModes {
		panic(fmt.Sprintf("upc: invalid mode %d", m))
	}
	u.mode = m
}

// Start enables counting on all 256 counters.
func (u *Unit) Start() {
	if u.running {
		return
	}
	for i := 0; i < NumCounters; i++ {
		u.base[i] = u.sample(i)
	}
	u.running = true
}

// Stop freezes all counters, folding the counts of the current window into
// the counter registers.
func (u *Unit) Stop() {
	if !u.running {
		return
	}
	for i := 0; i < NumCounters; i++ {
		u.accum[i] += u.sample(i) - u.base[i]
	}
	u.running = false
}

// Read returns the current value of counter i.
func (u *Unit) Read(i int) uint64 {
	if i < 0 || i >= NumCounters {
		panic(fmt.Sprintf("upc: counter index %d out of range", i))
	}
	v := u.accum[i]
	if u.running {
		v += u.sample(i) - u.base[i]
	}
	return v
}

// ReadAll copies all 256 counter values into dst.
func (u *Unit) ReadAll(dst *[NumCounters]uint64) {
	for i := 0; i < NumCounters; i++ {
		dst[i] = u.Read(i)
	}
}

// Clear zeroes counter i and re-arms its threshold interrupt.
func (u *Unit) Clear(i int) {
	u.accum[i] = 0
	u.fired[i] = false
	if u.running {
		u.base[i] = u.sample(i)
	}
}

// ClearAll zeroes every counter.
func (u *Unit) ClearAll() {
	for i := 0; i < NumCounters; i++ {
		u.Clear(i)
	}
}

// SetConfig writes the 4-bit configuration field of counter i.
func (u *Unit) SetConfig(i int, cfg uint8) {
	u.config[i] = cfg & 0x7
	u.fired[i] = false
}

// Config returns the configuration field of counter i.
func (u *Unit) Config(i int) uint8 { return u.config[i] }

// SetThreshold sets the interrupt threshold of counter i.
func (u *Unit) SetThreshold(i int, v uint64) {
	u.threshold[i] = v
	u.fired[i] = false
}

// Poll checks threshold interrupts, invoking the handler once (edge
// triggered, re-armed by Clear) for every enabled counter at or above its
// threshold. The node calls Poll at scheduling boundaries; the paper's
// "thresholding" feedback mechanism is delivered this way.
func (u *Unit) Poll() {
	if u.handler == nil {
		return
	}
	for i := 0; i < NumCounters; i++ {
		if u.config[i]&CfgIntEnable == 0 || u.fired[i] || u.threshold[i] == 0 {
			continue
		}
		if v := u.Read(i); v >= u.threshold[i] {
			u.fired[i] = true
			u.handler(i, v)
		}
	}
}

func (u *Unit) sample(i int) uint64 {
	sig := u.signals[u.mode]
	if sig == nil {
		sig = u.wire()
	}
	if s := sig[i]; s != nil {
		return s()
	}
	return 0
}

// wire builds the current mode's signal table, on its first sample.
func (u *Unit) wire() *[NumCounters]Signal {
	sig := new([NumCounters]Signal)
	u.build(u.mode, sig)
	u.signals[u.mode] = sig
	return sig
}

// HasHandler reports whether a threshold-interrupt handler is installed.
// The epoch memo and fast-forward paths disable themselves on nodes with a
// live handler: both change how often Poll runs, which is observable only
// through handler invocations.
func (u *Unit) HasHandler() bool { return u.handler != nil }
