package experiments

// Extensions beyond the paper's published figures: the studies §IX lists
// as future work — varying the L2 prefetch amount, and hybrid OpenMP+MPI
// execution on the multicore nodes — plus ablations of this reproduction's
// own design choices.

import (
	"fmt"
	"io"

	bgp "bgpsim"
	"bgpsim/internal/machine"
	"bgpsim/internal/postproc"
)

// PrefetchDepths returns the L2 stream-prefetch depths of the sweep:
// disabled, then 1 to 8 lines ahead.
func PrefetchDepths() []int { return []int{-1, 1, 2, 4, 8} }

// PrefetchPoint is one benchmark × prefetch-depth outcome.
type PrefetchPoint struct {
	// Depth is the configured prefetch depth (-1 = disabled).
	Depth int
	// ExecCycles is the execution time.
	ExecCycles uint64
	// DDRTrafficBytes is the machine-wide DDR traffic (over-prefetching
	// shows up here).
	DDRTrafficBytes uint64
	// L2HitFraction is the share of below-L1 demand accesses served by
	// the prefetch buffer.
	L2HitFraction float64
	// Missing marks a point whose run failed (see Scale.Missing).
	Missing bool
}

// PrefetchRow is one benchmark's prefetch-depth series.
type PrefetchRow struct {
	// Benchmark is the benchmark name.
	Benchmark string
	// Points are the per-depth outcomes in PrefetchDepths order.
	Points []PrefetchPoint
}

// PrefetchSweep runs the §IX prefetch-amount study: benchmarks whose
// demand streams the L2 engines can cover speed up with depth until the
// prefetches start evicting each other.
func PrefetchSweep(benchmarks []string, s Scale) ([]PrefetchRow, error) {
	return prefetchSweep(s, "prefetch sweep", benchmarks, PrefetchDepths(),
		func(c *bgp.RunConfig, depth int) { c.L2PrefetchDepth = depth },
		func(res *bgp.Result) float64 {
			hits := res.Analysis.EstimatedTotal(0, "BGP_NODE_L2_PF_HIT")
			misses := res.Analysis.EstimatedTotal(0, "BGP_NODE_L2_MISS")
			if hits+misses == 0 {
				return 0
			}
			return hits / (hits + misses)
		})
}

// prefetchSweep runs the suite over one prefetch engine's depths; l2Hits
// derives a completed point's L2HitFraction.
func prefetchSweep(s Scale, what string, benchmarks []string, depths []int,
	set func(*bgp.RunConfig, int), l2Hits func(*bgp.Result) float64) ([]PrefetchRow, error) {
	results, err := grid(s, what, benchmarks, nil, variantsOf(depths, set)...)
	if err != nil {
		return nil, err
	}
	rows := make([]PrefetchRow, len(benchmarks))
	for i, name := range benchmarks {
		rows[i] = PrefetchRow{Benchmark: name, Points: make([]PrefetchPoint, len(depths))}
		for k, depth := range depths {
			rows[i].Points[k] = PrefetchPoint{Depth: depth, Missing: true}
			if res := results[i][k]; res != nil {
				rows[i].Points[k] = PrefetchPoint{
					Depth:           depth,
					ExecCycles:      res.Metrics.ExecCycles,
					DDRTrafficBytes: res.Metrics.DDRTrafficBytes,
					L2HitFraction:   l2Hits(res),
				}
			}
		}
	}
	return rows, nil
}

// RenderPrefetch prints the prefetch-depth study.
func RenderPrefetch(w io.Writer, rows []PrefetchRow) {
	renderRelative(w, "Extension: L2 prefetch-depth sweep (exec cycles, relative to depth 2)", rows,
		func(r PrefetchRow) (string, []PrefetchPoint) { return r.Benchmark, r.Points },
		func(_ int, p PrefetchPoint) relCell {
			return relCell{col: depthColumn(p.Depth, p.Depth < 0), value: float64(p.ExecCycles), missing: p.Missing, base: p.Depth == 2}
		})
}

// depthColumn heads one prefetch depth's column.
func depthColumn(depth int, off bool) string {
	if off {
		return "off"
	}
	return fmt.Sprintf("depth %d", depth)
}

// L3PrefetchDepths returns the memory-side L3 prefetch depths of the sweep.
func L3PrefetchDepths() []int { return []int{0, 2, 4, 8} }

// L3PrefetchSweep runs the other half of the §IX prefetch study: the
// memory-side L3 engine, which catches the wide-strided sweeps the
// per-core L2 detectors cannot lock onto.
func L3PrefetchSweep(benchmarks []string, s Scale) ([]PrefetchRow, error) {
	return prefetchSweep(s, "l3 prefetch sweep", benchmarks, L3PrefetchDepths(),
		func(c *bgp.RunConfig, depth int) { c.L3PrefetchDepth = depth },
		func(*bgp.Result) float64 { return 0 })
}

// RenderL3Prefetch prints the L3 prefetch-depth study.
func RenderL3Prefetch(w io.Writer, rows []PrefetchRow) {
	renderRelative(w, "Extension: memory-side L3 prefetch-depth sweep (exec cycles, relative to off)", rows,
		func(r PrefetchRow) (string, []PrefetchPoint) { return r.Benchmark, r.Points },
		func(k int, p PrefetchPoint) relCell {
			return relCell{col: depthColumn(p.Depth, p.Depth == 0), value: float64(p.ExecCycles), missing: p.Missing, base: k == 0}
		})
}

// HybridRow compares pure-MPI virtual-node mode against hybrid MPI+OpenMP
// (SMP/4: one rank per node, four threads) at equal core counts.
type HybridRow struct {
	// Benchmark is the benchmark name.
	Benchmark string
	// VNM and SMP4 are the two runs' metrics.
	VNM, SMP4 *postproc.Metrics
	// TimeRatio is SMP/4 execution time over VNM (>1: pure MPI wins).
	TimeRatio float64
	// TrafficRatio is SMP/4 DDR traffic over VNM.
	TrafficRatio float64
	// Missing marks a row where either run failed (see Scale.Missing).
	Missing bool
}

// HybridModes runs the §IX "OpenMP with MPI on the multicore nodes" study:
// the same problem on the same nodes, decomposed either into four MPI
// ranks per node or into one rank of four threads per node.
func HybridModes(benchmarks []string, s Scale) ([]HybridRow, error) {
	results, err := grid(s, "hybrid", benchmarks, nil, asBuilt, func(c *bgp.RunConfig) {
		// Same node count, a quarter of the ranks, four threads each.
		c.Ranks /= machine.VNM.RanksPerNode()
		c.Mode = machine.SMP4
	})
	if err != nil {
		return nil, err
	}
	rows := make([]HybridRow, len(benchmarks))
	for i, name := range benchmarks {
		vnm, smp4 := metricsOf(results[i][0]), metricsOf(results[i][1])
		row := HybridRow{Benchmark: name, VNM: vnm, SMP4: smp4, Missing: vnm == nil || smp4 == nil}
		if !row.Missing {
			if vnm.ExecCycles > 0 {
				row.TimeRatio = float64(smp4.ExecCycles) / float64(vnm.ExecCycles)
			}
			if vnm.DDRTrafficBytes > 0 {
				row.TrafficRatio = float64(smp4.DDRTrafficBytes) / float64(vnm.DDRTrafficBytes)
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// RenderHybrid prints the hybrid study.
func RenderHybrid(w io.Writer, rows []HybridRow) {
	fmt.Fprintln(w, "Extension: hybrid MPI+OpenMP (SMP/4) vs pure MPI (VNM), equal cores")
	table := make([][]string, 0, len(rows))
	missing := 0
	for _, r := range rows {
		if r.Missing {
			missing++
			cyc := func(m *postproc.Metrics) string {
				if m == nil {
					return missingCell
				}
				return fmt.Sprintf("%.3g", float64(m.ExecCycles))
			}
			table = append(table, []string{r.Benchmark, cyc(r.VNM), cyc(r.SMP4), missingCell, missingCell})
			continue
		}
		table = append(table, []string{
			r.Benchmark,
			fmt.Sprintf("%.3g", float64(r.VNM.ExecCycles)),
			fmt.Sprintf("%.3g", float64(r.SMP4.ExecCycles)),
			fmt.Sprintf("%.2f", r.TimeRatio),
			fmt.Sprintf("%.2f", r.TrafficRatio),
		})
	}
	writeTable(w, []string{"benchmark", "VNM cycles", "SMP/4 cycles", "time ratio", "traffic ratio"}, table)
	partialNote(w, missing, len(rows))
}
