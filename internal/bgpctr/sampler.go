package bgpctr

// The time-series sampler: a monitoring thread that periodically reads the
// globally accessible counters of every node while the application runs.
// This is the "single monitoring thread executing as part of a system
// service" usage the paper's §I describes — counter values become a
// timeline instead of one end-of-run total, without touching the
// application at all.

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"bgpsim/internal/mpi"
	"bgpsim/internal/upc"
)

// Sample is one periodic observation of one node.
type Sample struct {
	// Cycle is the logical time of the observation.
	Cycle uint64
	// NodeID identifies the observed node.
	NodeID int
	// Values holds the sampled counter values in the sampler's event
	// order; events the node's counter mode does not carry read as -1.
	Values []int64
}

// Sampler takes periodic snapshots of named events across a job's nodes.
type Sampler struct {
	interval uint64
	events   []string
	next     uint64
	samples  []Sample
}

// NewSampler creates a sampler reading the named events every interval
// cycles. Events are read from whatever counter mode each node is in; an
// event absent from a node's mode records -1 for that node.
func NewSampler(interval uint64, events ...string) *Sampler {
	if interval == 0 {
		panic("bgpctr: zero sampling interval")
	}
	if len(events) == 0 {
		panic("bgpctr: sampler without events")
	}
	return &Sampler{interval: interval, events: events, next: interval}
}

// Events returns the sampled event names in column order.
func (s *Sampler) Events() []string {
	out := make([]string, len(s.events))
	copy(out, s.events)
	return out
}

// Attach hooks the sampler onto a job before Run. The sampler observes
// every node of the job's machine each time the simulation clock crosses a
// multiple of the interval.
func (s *Sampler) Attach(j *mpi.Job) {
	nodes := j.Machine().Nodes
	j.OnAdvance(func(clock uint64) {
		var counts [upc.NumCounters]uint64
		for clock >= s.next {
			for _, n := range nodes {
				sample := Sample{Cycle: s.next, NodeID: n.ID(), Values: make([]int64, len(s.events))}
				n.UPC.ReadAll(&counts)
				for i, ev := range s.events {
					idx := upc.EventIndex(n.UPC.Mode(), ev)
					if idx < 0 {
						sample.Values[i] = -1
						continue
					}
					sample.Values[i] = int64(counts[idx])
				}
				s.samples = append(s.samples, sample)
			}
			s.next += s.interval
		}
	})
}

// Samples returns every observation in (cycle, node) order.
func (s *Sampler) Samples() []Sample {
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].NodeID < out[j].NodeID
	})
	return out
}

// Series returns one node's timeline for one event (skipping ticks where
// the node's mode does not carry it).
func (s *Sampler) Series(nodeID int, event string) (cycles []uint64, values []uint64) {
	col := -1
	for i, ev := range s.events {
		if ev == event {
			col = i
		}
	}
	if col == -1 {
		return nil, nil
	}
	for _, sm := range s.Samples() {
		if sm.NodeID != nodeID || sm.Values[col] < 0 {
			continue
		}
		cycles = append(cycles, sm.Cycle)
		values = append(values, uint64(sm.Values[col]))
	}
	return cycles, values
}

// WriteCSV emits the timeline: one row per (cycle, node) with a column per
// event; absent events print empty cells.
func (s *Sampler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"cycle", "node"}, s.events...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, sm := range s.Samples() {
		rec := []string{fmt.Sprint(sm.Cycle), fmt.Sprint(sm.NodeID)}
		for _, v := range sm.Values {
			if v < 0 {
				rec = append(rec, "")
			} else {
				rec = append(rec, fmt.Sprint(v))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
