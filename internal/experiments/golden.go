package experiments

// The golden-figure harness: every table of the paper's evaluation rendered
// into canonical CSV cells, so a committed snapshot (testdata/golden at the
// repo root) pins the exact numbers the pipeline produces and any
// accounting drift — a counter charged differently, a changed formula, a
// perturbed interleaving — fails a cell-by-cell diff loudly. The cells are
// formatted strings, not floats, so "equal" means byte-equal.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GoldenFigureNames lists the tables GoldenFigures renders, sorted — one
// per committed golden CSV, one per figure selector of the catalog.
func GoldenFigureNames() []string {
	var names []string
	for _, st := range Studies() {
		if st.golden != nil {
			for _, selector := range st.Selectors {
				names = append(names, goldenName(selector))
			}
		}
	}
	return names
}

// goldenName is the golden table a figure selector is pinned by: "-fig 7"
// is "fig07".
func goldenName(selector string) string {
	n, _ := strconv.Atoi(strings.TrimPrefix(selector, "-fig "))
	return fmt.Sprintf("fig%02d", n)
}

// GoldenFigures recomputes every figure table at the given scale and
// returns them keyed by GoldenFigureNames entries, each as CSV-ready rows
// with a header row first. Each study of the catalog is swept once and its
// figures cut from that sweep — figures 7-10 come from one compiler sweep,
// 12-14 from one mode sweep — so the whole set costs three suite sweeps plus
// the profile and L3 runs. The extension studies are not paper figures and
// do not run.
//
// Figures share points: Figure 6's runs are the -O5 -qarch=440d column of
// Figures 9-10 and the VNM column of 12-14, and Figure 11's 2 MB points are
// the SMP/1 column of 12-14. One call is one catalog walk (see walk), so
// each run identity is simulated once — 96 identities for the 120 points at
// any scale — and every later point with that identity is served its result.
func GoldenFigures(s Scale) (map[string][][]string, error) {
	tables := make(map[string][][]string)
	err := s.walk(func(s Scale, st Study) error {
		if st.golden == nil {
			return nil
		}
		return st.golden(s, tables)
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// goldenCell renders a float with full round-trip precision, so the golden
// diff catches a drift in the last bit.
func goldenCell(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}

const missingCellCSV = "missing"

func goldenFig6(rows []ProfileRow) [][]string {
	classes := classOrder(rows, func(r ProfileRow) map[string]float64 { return r.Fractions })
	header := append([]string{"benchmark"}, classes...)
	out := [][]string{header}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, ev := range classes {
			if r.Missing {
				cells = append(cells, missingCellCSV)
				continue
			}
			cells = append(cells, goldenCell(r.Fractions[ev]))
		}
		out = append(out, cells)
	}
	return out
}

// classOrder returns the FP-class mnemonics present in the items' profiles,
// sorted, so a golden schema does not depend on package import order.
func classOrder[T any](items []T, fractions func(T) map[string]float64) []string {
	seen := map[string]bool{}
	for _, it := range items {
		for ev := range fractions(it) {
			seen[ev] = true
		}
	}
	classes := make([]string, 0, len(seen))
	for ev := range seen {
		classes = append(classes, ev)
	}
	sort.Strings(classes)
	return classes
}

func goldenCompiler(pts []CompilerPoint) [][]string {
	out := [][]string{{"build", "simd_instructions", "simd_share", "exec_cycles", "mflops"}}
	for _, p := range pts {
		if p.Missing {
			out = append(out, []string{p.Opts.String(), missingCellCSV, missingCellCSV, missingCellCSV, missingCellCSV})
			continue
		}
		out = append(out, []string{
			p.Opts.String(),
			goldenCell(p.SIMDInstructions),
			goldenCell(p.SIMDShare),
			strconv.FormatUint(p.ExecCycles, 10),
			goldenCell(p.MFLOPS),
		})
	}
	return out
}

func goldenExecTimes(rows []ExecTimeRow) [][]string {
	header := []string{"benchmark"}
	for _, opts := range CompilerConfigs() {
		header = append(header, opts.String())
	}
	out := [][]string{header}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, p := range r.Points {
			if p.Missing {
				cells = append(cells, missingCellCSV)
				continue
			}
			cells = append(cells, strconv.FormatUint(p.ExecCycles, 10))
		}
		out = append(out, cells)
	}
	return out
}

func goldenFig11(rows []L3Row) [][]string {
	header := []string{"benchmark", "metric"}
	for _, l3 := range L3Sizes() {
		header = append(header, fmt.Sprintf("%dMB", l3>>20))
	}
	out := [][]string{header}
	for _, r := range rows {
		traffic := []string{r.Benchmark, "ddr_traffic_bytes"}
		miss := []string{r.Benchmark, "l3_miss_fraction"}
		for _, p := range r.Points {
			if p.Missing {
				traffic = append(traffic, missingCellCSV)
				miss = append(miss, missingCellCSV)
				continue
			}
			traffic = append(traffic, strconv.FormatUint(p.DDRTrafficBytes, 10))
			miss = append(miss, goldenCell(p.MissFraction))
		}
		out = append(out, traffic, miss)
	}
	return out
}

// goldenModes renders one metric of the mode comparison — one of figures
// 12-14.
func goldenModes(metric string, val func(ModeRow) float64) func([]ModeRow) [][]string {
	return func(rows []ModeRow) [][]string {
		out := [][]string{{"benchmark", metric}}
		for _, r := range rows {
			if r.Missing {
				out = append(out, []string{r.Benchmark, missingCellCSV})
				continue
			}
			out = append(out, []string{r.Benchmark, goldenCell(val(r))})
		}
		return out
	}
}
