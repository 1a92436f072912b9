// Package memory models the two DDR2 memory controllers of a Blue Gene/P
// compute node. The controllers are the bottom of the on-chip hierarchy:
// every L3 miss, L3 writeback, and network DMA transfer turns into line
// transfers here, and the traffic counters this package maintains are the
// raw data behind the paper's "L3–DDR traffic" metric (Figures 11 and 12).
//
// Latency is charged analytically: a base access latency plus a queueing
// penalty that grows with the number of cores actively issuing requests on
// the node. This captures the memory-port contention the paper observes in
// virtual-node mode ("only for FT and IS applications the number of requests
// increased more than four times due to memory port contention") without a
// cycle-level DRAM model, which the counters cannot observe anyway.
package memory

import "fmt"

// LineBytes is the DDR transfer granule, matching the 128-byte L3 line.
const LineBytes = 128

// Config describes a DDR controller's timing.
type Config struct {
	// ReadLatency is the unloaded read latency in core cycles.
	ReadLatency uint64
	// WritePenalty is the store-queue backpressure charged to a core per
	// posted line write (writes are posted; the core does not wait for
	// DRAM, only for queue admission).
	WritePenalty uint64
	// QueuePenalty is the extra latency per additional concurrently
	// active core sharing the controller.
	QueuePenalty uint64
}

// DefaultConfig returns timing roughly matching an 850 MHz PPC450 in front
// of DDR2-425: ~104 cycle unloaded latency and a modest per-sharer queueing
// penalty.
func DefaultConfig() Config {
	return Config{ReadLatency: 104, WritePenalty: 8, QueuePenalty: 22}
}

// Controller is one of the node's two DDR2 controllers. Lines are
// interleaved across controllers by the node.
type Controller struct {
	id  int
	cfg Config

	// ReadLines counts lines read from DRAM (demand misses, prefetches,
	// and network-DMA reads).
	ReadLines uint64
	// WriteLines counts lines written to DRAM (L3 writebacks,
	// write-through traffic past L3, and network-DMA writes).
	WriteLines uint64
}

// NewController creates controller id with the given timing.
func NewController(id int, cfg Config) *Controller {
	if cfg.ReadLatency == 0 {
		panic(fmt.Sprintf("memory: controller %d with zero read latency", id))
	}
	return &Controller{id: id, cfg: cfg}
}

// ID returns the controller index on its node.
func (c *Controller) ID() int { return c.id }

// ReadLine charges one demand line read issued while activeCores cores are
// running on the node, and returns the latency the requesting core stalls.
func (c *Controller) ReadLine(activeCores int) uint64 {
	c.ReadLines++
	return c.latency(activeCores)
}

// WriteLine charges one posted line write and returns the (small) stall the
// issuing core observes for queue admission.
func (c *Controller) WriteLine(activeCores int) uint64 {
	c.WriteLines++
	if activeCores > 1 {
		return c.cfg.WritePenalty + c.cfg.QueuePenalty/4*uint64(activeCores-1)
	}
	return c.cfg.WritePenalty
}

// PrefetchLine charges one prefetch line read. The requesting core does not
// stall on prefetches, but the traffic is real and is counted.
func (c *Controller) PrefetchLine() {
	c.ReadLines++
}

// DMALines charges n lines of network DMA traffic (read when fromMemory is
// true, write otherwise). Torus packet payloads are fetched from and stored
// to DRAM by the DMA engine, so message traffic appears in the DDR counters
// exactly as on the real machine.
func (c *Controller) DMALines(n uint64, fromMemory bool) {
	if fromMemory {
		c.ReadLines += n
	} else {
		c.WriteLines += n
	}
}

func (c *Controller) latency(activeCores int) uint64 {
	lat := c.cfg.ReadLatency
	if activeCores > 1 {
		lat += c.cfg.QueuePenalty * uint64(activeCores-1)
	}
	return lat
}

// TrafficBytes returns the total bytes moved between L3 and DRAM.
func (c *Controller) TrafficBytes() uint64 {
	return (c.ReadLines + c.WriteLines) * LineBytes
}
