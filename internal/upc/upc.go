// Package upc models the Universal Performance Counter unit of a Blue
// Gene/P compute node: 256 64-bit counters that can be configured in one of
// four counter modes, each exposing a different set of 256 hardware events
// (1024 monitorable events in total). All counters and configuration
// registers are memory-mapped; a per-counter 4-bit configuration field
// selects the count-event signalling mode and enables threshold interrupts,
// exactly as described in the paper's §III-A.
//
// Hardware event wires are modelled as one sampling call: each source unit
// (core, FPU, cache, DDR controller, network interface) exposes free-running
// totals, the node reads a mode's 256 of them into an array in one pass, and
// the UPC computes counter values as deltas from the moment counting was
// enabled. This yields the same observable counter values as per-pulse
// counting and keeps the hot execution path free of per-event indirection.
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
	// sample writes a mode's 256 free-running raw totals into v.
	sample func(Mode, *[NumCounters]uint64)

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

// New creates a UPC unit whose mode m counts the raw totals sample(m, v)
// writes into a zeroed v. Slots it leaves zero are reserved events. Every
// operation that reads the counters samples once.
func New(sample func(m Mode, v *[NumCounters]uint64)) *Unit {
	return &Unit{sample: sample}
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
	u.base = u.raw()
	u.running = true
}

// Stop freezes all counters, folding the counts of the current window into
// the counter registers.
func (u *Unit) Stop() {
	if !u.running {
		return
	}
	raw := u.raw()
	for i := range u.accum {
		u.accum[i] += raw[i] - u.base[i]
	}
	u.running = false
}

// Read returns the current value of counter i.
func (u *Unit) Read(i int) uint64 {
	if i < 0 || i >= NumCounters {
		panic(fmt.Sprintf("upc: counter index %d out of range", i))
	}
	if !u.running {
		return u.accum[i]
	}
	raw := u.raw()
	return u.accum[i] + raw[i] - u.base[i]
}

// ReadAll copies all 256 counter values into dst.
func (u *Unit) ReadAll(dst *[NumCounters]uint64) {
	if !u.running {
		*dst = u.accum
		return
	}
	raw := u.raw()
	for i := range dst {
		dst[i] = u.accum[i] + raw[i] - u.base[i]
	}
}

// Clear zeroes counter i and re-arms its threshold interrupt.
func (u *Unit) Clear(i int) {
	u.accum[i] = 0
	u.fired[i] = false
	if u.running {
		u.base[i] = u.raw()[i]
	}
}

// ClearAll zeroes every counter.
func (u *Unit) ClearAll() {
	u.accum = [NumCounters]uint64{}
	u.fired = [NumCounters]bool{}
	if u.running {
		u.base = u.raw()
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
	var v [NumCounters]uint64
	sampled := false
	for i := 0; i < NumCounters; i++ {
		if u.config[i]&CfgIntEnable == 0 || u.fired[i] || u.threshold[i] == 0 {
			continue
		}
		if !sampled {
			u.ReadAll(&v)
			sampled = true
		}
		if v[i] >= u.threshold[i] {
			u.fired[i] = true
			u.handler(i, v[i])
		}
	}
}

// raw samples the current mode's 256 raw totals.
func (u *Unit) raw() (v [NumCounters]uint64) {
	u.sample(u.mode, &v)
	return v
}

// HasHandler reports whether a threshold-interrupt handler is installed.
// The epoch memo and fast-forward paths disable themselves on nodes with a
// live handler: both change how often Poll runs, which is observable only
// through handler invocations.
func (u *Unit) HasHandler() bool { return u.handler != nil }
