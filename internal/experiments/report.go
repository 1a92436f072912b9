package experiments

import (
	"fmt"
	"io"
	"strings"
)

// This file renders experiment results as aligned text tables — the output
// format of cmd/bgpsweep and cmd/bgpreport.

// shortClassNames abbreviates the FP class mnemonics for table headers.
var shortClassNames = map[string]string{
	"BGP_NODE_FPU_ADD_SUB":      "add-sub",
	"BGP_NODE_FPU_MULT":         "mult",
	"BGP_NODE_FPU_DIV":          "div",
	"BGP_NODE_FPU_FMA":          "fma",
	"BGP_NODE_FPU_SIMD_ADD_SUB": "simd-add-sub",
	"BGP_NODE_FPU_SIMD_MULT":    "simd-mult",
	"BGP_NODE_FPU_SIMD_DIV":     "simd-div",
	"BGP_NODE_FPU_SIMD_FMA":     "simd-fma",
}

// fpClassOrder is the presentation order of Figure 6's stacked bars.
var fpClassOrder = []string{
	"BGP_NODE_FPU_ADD_SUB",
	"BGP_NODE_FPU_MULT",
	"BGP_NODE_FPU_FMA",
	"BGP_NODE_FPU_DIV",
	"BGP_NODE_FPU_SIMD_ADD_SUB",
	"BGP_NODE_FPU_SIMD_FMA",
	"BGP_NODE_FPU_SIMD_MULT",
	"BGP_NODE_FPU_SIMD_DIV",
}

// missingCell renders a point whose run failed or was absent from the
// checkpoint (ContinueOnError / ResumeOnly graceful degradation).
const missingCell = "—"

// partialNote flags a partially-rendered figure; complete figures print
// nothing.
func partialNote(w io.Writer, missing, total int) {
	if missing > 0 {
		fmt.Fprintf(w, "partial: %d of %d points missing\n", missing, total)
	}
}

func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// RenderFig6 prints the dynamic FP instruction profile table.
func RenderFig6(w io.Writer, rows []ProfileRow) {
	header := []string{"benchmark"}
	for _, ev := range fpClassOrder {
		header = append(header, shortClassNames[ev])
	}
	table := make([][]string, 0, len(rows))
	missing := 0
	for _, r := range rows {
		row := []string{r.Benchmark}
		for _, ev := range fpClassOrder {
			if r.Missing {
				row = append(row, missingCell)
			} else {
				row = append(row, fmt.Sprintf("%5.1f%%", 100*r.Fractions[ev]))
			}
		}
		if r.Missing {
			missing++
		}
		table = append(table, row)
	}
	fmt.Fprintln(w, "Figure 6: dynamic FP instruction profile (share of FP instructions)")
	writeTable(w, header, table)
	partialNote(w, missing, len(rows))
}

// RenderCompilerSIMD prints a Figure 7/8-style SIMD instruction table.
func RenderCompilerSIMD(w io.Writer, benchmark string, pts []CompilerPoint, figure string) {
	fmt.Fprintf(w, "%s: %s — SIMD instructions by build\n", figure, strings.ToUpper(benchmark))
	table := make([][]string, 0, len(pts))
	missing := 0
	for _, p := range pts {
		if p.Missing {
			missing++
			table = append(table, []string{p.Opts.String(), missingCell, missingCell})
			continue
		}
		table = append(table, []string{
			p.Opts.String(),
			fmt.Sprintf("%.3g", p.SIMDInstructions),
			fmt.Sprintf("%5.1f%%", 100*p.SIMDShare),
		})
	}
	writeTable(w, []string{"build", "simd instructions", "simd share"}, table)
	partialNote(w, missing, len(pts))
}

// relCell is one point of a relative table: its column heading, its value,
// whether its run went missing, and whether it is the row's base — the
// point every value of the row is shown relative to.
type relCell struct {
	col           string
	value         float64
	missing, base bool
}

// renderRelative prints the one "value (ratio to the base column)" table
// shape the execution-time, L3-size and prefetch studies share: a row per
// series, a column per point. split names a row and yields its points; cell
// reads point k. A row whose base point is missing shows absolute values
// only.
func renderRelative[R, P any](w io.Writer, title string, rows []R, split func(R) (string, []P), cell func(k int, p P) relCell) {
	fmt.Fprintln(w, title)
	header := []string{"benchmark"}
	table := make([][]string, 0, len(rows))
	missing, total := 0, 0
	for i, r := range rows {
		name, points := split(r)
		cells := make([]relCell, len(points))
		var base float64
		for k, p := range points {
			cells[k] = cell(k, p)
			if i == 0 {
				header = append(header, cells[k].col)
			}
			if cells[k].base && !cells[k].missing {
				base = cells[k].value
			}
		}
		row := []string{name}
		for _, c := range cells {
			total++
			switch {
			case c.missing:
				missing++
				row = append(row, missingCell)
			case base > 0:
				row = append(row, fmt.Sprintf("%.3g (%.2f)", c.value, c.value/base))
			default:
				row = append(row, fmt.Sprintf("%.3g (%s)", c.value, missingCell))
			}
		}
		table = append(table, row)
	}
	writeTable(w, header, table)
	partialNote(w, missing, total)
}

// RenderExecTimes prints a Figure 9/10-style execution-time table: one row
// per benchmark, one column per build, normalized to the baseline build.
func RenderExecTimes(w io.Writer, rows []ExecTimeRow, figure string) {
	renderRelative(w, figure+": execution time by build (cycles, and relative to -O -qstrict)", rows,
		func(r ExecTimeRow) (string, []CompilerPoint) { return r.Benchmark, r.Points },
		func(k int, p CompilerPoint) relCell {
			return relCell{col: p.Opts.String(), value: float64(p.ExecCycles), missing: p.Missing, base: k == 0}
		})
}

// RenderFig11 prints the L3-size sweep table: DDR traffic per benchmark and
// L3 size, normalized to the 0 MB (no L3) point.
func RenderFig11(w io.Writer, rows []L3Row) {
	renderRelative(w, "Figure 11: L3→DDR traffic vs L3 size (bytes, and relative to no L3)", rows,
		func(r L3Row) (string, []L3Point) { return r.Benchmark, r.Points },
		func(k int, p L3Point) relCell {
			return relCell{col: fmt.Sprintf("%dMB", p.L3Bytes>>20), value: float64(p.DDRTrafficBytes), missing: p.Missing, base: k == 0}
		})
}

// RenderModes prints the Figures 12-14 comparison table.
func RenderModes(w io.Writer, rows []ModeRow) {
	fmt.Fprintln(w, "Figures 12-14: virtual-node mode (4 ranks/node, 8MB L3) vs SMP/1 (1 rank/node, 2MB L3)")
	table := make([][]string, 0, len(rows))
	var ratios, slows, gains []float64
	missing := 0
	for _, r := range rows {
		if r.Missing {
			missing++
			table = append(table, []string{r.Benchmark, missingCell, missingCell, missingCell})
			continue
		}
		table = append(table, []string{
			r.Benchmark,
			fmt.Sprintf("%.2f", r.TrafficRatio),
			fmt.Sprintf("%+.1f%%", r.SlowdownPct),
			fmt.Sprintf("%.2f", r.MFLOPSPerChipGain),
		})
		ratios = append(ratios, r.TrafficRatio)
		slows = append(slows, r.SlowdownPct)
		gains = append(gains, r.MFLOPSPerChipGain)
	}
	// The means cover complete rows only.
	table = append(table, []string{
		"mean",
		fmt.Sprintf("%.2f", Mean(ratios)),
		fmt.Sprintf("%+.1f%%", Mean(slows)),
		fmt.Sprintf("%.2f", Mean(gains)),
	})
	writeTable(w, []string{
		"benchmark", "DDR traffic ratio (fig12)", "exec time increase (fig13)", "MFLOPS/chip gain (fig14)",
	}, table)
	partialNote(w, missing, len(rows))
}
