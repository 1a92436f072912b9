package experiments

// Workload-spec characterization: the paper's counter methodology applied
// to a declarative workload (RunConfig.Spec) instead of a NAS benchmark.
// One spec is run under the best build across the four node operating
// modes, and the per-mode headline metrics plus the dynamic FP instruction
// profile come back as a figure-shaped table — rendered by bgpsweep -spec
// and pinned by the golden harness (testdata/golden/<spec>.csv).

import (
	"fmt"
	"io"

	"bgpsim/internal/machine"
	"bgpsim/internal/postproc"

	bgp "bgpsim"
)

// SpecModes returns the operating modes of the spec characterization in
// presentation order.
func SpecModes() []machine.OpMode {
	return []machine.OpMode{machine.SMP1, machine.SMP4, machine.Dual, machine.VNM}
}

// SpecPoint is one mode's outcome for a workload spec.
type SpecPoint struct {
	// Mode is the node operating mode.
	Mode machine.OpMode
	// Metrics is the run's derived whole-application metrics.
	Metrics *postproc.Metrics
	// Fractions is the dynamic FP instruction profile (shares of FP
	// instructions per class, as in Figure 6).
	Fractions map[string]float64
	// Missing marks a point whose run failed under ContinueOnError.
	Missing bool
}

// SpecCharacterization runs the spec under the best build in every
// operating mode and derives one SpecPoint per mode, in SpecModes order.
func SpecCharacterization(spec *bgp.WorkloadSpec, s Scale) ([]SpecPoint, error) {
	modes := SpecModes()
	results, err := grid(s, "spec "+spec.Name, nil, spec,
		variantsOf(modes, func(c *bgp.RunConfig, mode machine.OpMode) { c.Mode = mode })...)
	if err != nil {
		return nil, err
	}
	pts := make([]SpecPoint, len(modes))
	for k, mode := range modes {
		pts[k] = SpecPoint{Mode: mode, Missing: true}
		if res := results[0][k]; res != nil {
			pts[k] = SpecPoint{Mode: mode, Metrics: res.Metrics, Fractions: FPFractions(res.Metrics)}
		}
	}
	return pts, nil
}

// RenderSpec prints the characterization as a readable table.
func RenderSpec(w io.Writer, spec *bgp.WorkloadSpec, pts []SpecPoint) {
	fmt.Fprintf(w, "Workload %s — %s\n", spec.Name, spec.Description)
	fmt.Fprintf(w, "spec fingerprint %s\n\n", spec.Fingerprint()[:12])
	fmt.Fprintf(w, "%-6s %14s %10s %10s %8s %12s %8s %8s\n",
		"mode", "exec_cycles", "mflops", "mf/chip", "simd%", "ddr_bytes", "l1hit%", "l3miss%")
	for _, p := range pts {
		if p.Missing {
			fmt.Fprintf(w, "%-6v %14s %10s %10s %8s %12s %8s %8s\n",
				p.Mode, "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		m := p.Metrics
		fmt.Fprintf(w, "%-6v %14d %10.1f %10.1f %8.1f %12d %8.2f %8.2f\n",
			p.Mode, m.ExecCycles, m.MFLOPS, m.MFLOPSPerChip, 100*m.SIMDShare,
			m.DDRTrafficBytes, 100*m.L1HitRate, 100*m.L3MissRate)
	}
	fmt.Fprintf(w, "\nFP profile (share of FP instructions per mode):\n")
	classes := classOrder(pts, specFractions)
	fmt.Fprintf(w, "%-28s", "class")
	for _, p := range pts {
		fmt.Fprintf(w, " %8v", p.Mode)
	}
	fmt.Fprintln(w)
	for _, ev := range classes {
		fmt.Fprintf(w, "%-28s", ev)
		for _, p := range pts {
			if p.Missing {
				fmt.Fprintf(w, " %8s", "-")
				continue
			}
			fmt.Fprintf(w, " %7.1f%%", 100*p.Fractions[ev])
		}
		fmt.Fprintln(w)
	}
}

// GoldenSpec renders the characterization as a golden CSV table: one row
// per mode, headline metrics first, then the sorted FP-class fractions in
// full round-trip precision.
func GoldenSpec(pts []SpecPoint) [][]string {
	classes := classOrder(pts, specFractions)
	header := []string{"mode", "exec_cycles", "mflops", "mflops_per_chip",
		"simd_share", "ddr_traffic_bytes", "l1_hit_rate", "l3_miss_rate"}
	header = append(header, classes...)
	out := [][]string{header}
	for _, p := range pts {
		cells := []string{fmt.Sprintf("%v", p.Mode)}
		if p.Missing {
			for range header[1:] {
				cells = append(cells, missingCellCSV)
			}
			out = append(out, cells)
			continue
		}
		m := p.Metrics
		cells = append(cells,
			fmt.Sprintf("%d", m.ExecCycles),
			goldenCell(m.MFLOPS),
			goldenCell(m.MFLOPSPerChip),
			goldenCell(m.SIMDShare),
			fmt.Sprintf("%d", m.DDRTrafficBytes),
			goldenCell(m.L1HitRate),
			goldenCell(m.L3MissRate))
		for _, ev := range classes {
			cells = append(cells, goldenCell(p.Fractions[ev]))
		}
		out = append(out, cells)
	}
	return out
}

func specFractions(p SpecPoint) map[string]float64 { return p.Fractions }
