package bgp

import "fmt"

// RunCheckingL3Evictions is Run, also holding every node's L3 eviction
// counter to the tag scan it replaced: each L3 miss fills a way, into an
// invalid one or over a valid line, and nothing empties one, so the lines
// displaced are the misses less the lines still resident. A mismatch is an
// error.
func RunCheckingL3Evictions(cfg RunConfig) (*Result, error) {
	res, m, err := run(cfg)
	if err != nil {
		return nil, err
	}
	for _, nd := range m.Nodes {
		var misses, resident uint64
		for _, bank := range nd.L3 {
			if bank != nil {
				misses += bank.Misses
				resident += uint64(bank.Resident())
			}
		}
		if nd.L3Evictions != misses-resident {
			return nil, fmt.Errorf("%s node %d: %d L3 evictions counted, the tag scan finds %d misses and %d resident lines",
				res.Label, nd.ID(), nd.L3Evictions, misses, resident)
		}
	}
	return res, nil
}
