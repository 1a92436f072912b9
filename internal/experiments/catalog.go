package experiments

// The study catalog: the one list of what the evaluation consists of.
// bgpsweep looks a selector up in it, Report and GoldenFigures walk it, and
// DESIGN.md §3 indexes it (TestStudyCatalog holds the document to it).

import (
	"fmt"
	"io"
	"slices"
)

// Study is one entry of the catalog: the suite swept over one varied
// parameter, and the tables cut from that sweep.
type Study struct {
	// Step names the study in bgpreport's progress log.
	Step string
	// Selectors are the bgpsweep arguments that regenerate a table of the
	// study ("-fig 7", "-ext hybrid"), in report order.
	Selectors []string
	// Run runs the study at scale s and renders it to w. A selector sweeps
	// and prints only its own table (-fig 7 is seven runs, not fifty-six);
	// "" prints every table of the study, blank-line separated, from one
	// shared sweep.
	Run func(s Scale, w io.Writer, selector string) error
	// golden adds the study's golden CSV tables, one per selector, from one
	// shared sweep; nil for the extension studies, which are not paper
	// figures.
	golden func(s Scale, tables map[string][][]string) error
}

// Report renders every study to w in catalog order, each followed by a
// blank line: bgpreport's body, in one walk. step is called with each
// study's Step before the study runs.
func Report(s Scale, w io.Writer, step func(name string)) error {
	return s.walk(func(s Scale, st Study) error {
		step(st.Step)
		if err := st.Run(s, w, ""); err != nil {
			return fmt.Errorf("%s: %w", st.Step, err)
		}
		fmt.Fprintln(w)
		return nil
	})
}

// walk calls do on every study in catalog order with one pass table: each
// run identity is simulated once per walk, and every later point with it is
// served its result (see runAll).
func (s Scale) walk(do func(Scale, Study) error) error {
	s.pass = passTable{}
	for _, st := range Studies() {
		if err := do(s, st); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the study a bgpsweep selector names.
func Lookup(selector string) (Study, bool) {
	for _, st := range Studies() {
		if slices.Contains(st.Selectors, selector) {
			return st, true
		}
	}
	return Study{}, false
}

// view is one table of a study.
type view[R any] struct {
	// selectors print the table; figures 12-14 are three columns of one.
	selectors []string
	// names are the workloads the table covers, a subset of the suite.
	names  []string
	render func(w io.Writer, rows []R)
	// golden renders each selector's golden CSV from the table's rows, in
	// selectors order.
	golden []func(rows []R) [][]string
}

// study assembles a catalog entry from its sweep (rows come back one per
// name, in names order) and its views.
func study[R any](step string, sweep func(names []string, s Scale) ([]R, error), views ...view[R]) Study {
	// each sweeps once — the one view's workloads, or the whole suite — and
	// hands every selected view its rows.
	each := func(s Scale, selector string, do func(i int, v view[R], rows []R)) error {
		names, selected := SuiteNames(), views
		for _, v := range views {
			if slices.Contains(v.selectors, selector) {
				names, selected = v.names, []view[R]{v}
			}
		}
		rows, err := sweep(names, s)
		if err != nil {
			return err
		}
		for i, v := range selected {
			var cut []R
			for k, name := range names {
				if slices.Contains(v.names, name) {
					cut = append(cut, rows[k])
				}
			}
			do(i, v, cut)
		}
		return nil
	}
	st := Study{Step: step}
	for _, v := range views {
		st.Selectors = append(st.Selectors, v.selectors...)
	}
	st.Run = func(s Scale, w io.Writer, selector string) error {
		return each(s, selector, func(i int, v view[R], rows []R) {
			if i > 0 {
				fmt.Fprintln(w)
			}
			v.render(w, rows)
		})
	}
	if slices.ContainsFunc(views, func(v view[R]) bool { return v.golden != nil }) {
		st.golden = func(s Scale, tables map[string][][]string) error {
			return each(s, "", func(_ int, v view[R], rows []R) {
				for k, cells := range v.golden {
					tables[goldenName(v.selectors[k])] = cells(rows)
				}
			})
		}
	}
	return st
}

// Studies returns the catalog in report order: the paper's figures, then the
// §IX extension studies.
func Studies() []Study {
	suite := SuiteNames()
	simd := func(selector, figure, benchmark string) view[ExecTimeRow] {
		return view[ExecTimeRow]{
			selectors: []string{selector},
			names:     []string{benchmark},
			render: func(w io.Writer, rows []ExecTimeRow) {
				RenderCompilerSIMD(w, benchmark, rows[0].Points, figure)
			},
			golden: []func([]ExecTimeRow) [][]string{
				func(rows []ExecTimeRow) [][]string { return goldenCompiler(rows[0].Points) },
			},
		}
	}
	execTimes := func(selector, figure string, names []string) view[ExecTimeRow] {
		return view[ExecTimeRow]{
			selectors: []string{selector},
			names:     names,
			render:    func(w io.Writer, rows []ExecTimeRow) { RenderExecTimes(w, rows, figure) },
			golden:    []func([]ExecTimeRow) [][]string{goldenExecTimes},
		}
	}
	return []Study{
		study("figure 6", fig6Profile, view[ProfileRow]{
			selectors: []string{"-fig 6"}, names: suite, render: RenderFig6,
			golden: []func([]ProfileRow) [][]string{goldenFig6},
		}),
		study("figures 7-10", Fig910ExecTimes,
			simd("-fig 7", "Figure 7", "ft"),
			simd("-fig 8", "Figure 8", "mg"),
			execTimes("-fig 9", "Figure 9", suite[:4]),
			execTimes("-fig 10", "Figure 10", suite[4:])),
		study("figure 11", Fig11L3Sweep, view[L3Row]{
			selectors: []string{"-fig 11"}, names: suite, render: RenderFig11,
			golden: []func([]L3Row) [][]string{goldenFig11},
		}),
		study("figures 12-14", Fig121314Modes, view[ModeRow]{
			selectors: []string{"-fig 12", "-fig 13", "-fig 14"}, names: suite, render: RenderModes,
			golden: []func([]ModeRow) [][]string{
				goldenModes("traffic_ratio", func(r ModeRow) float64 { return r.TrafficRatio }),
				goldenModes("slowdown_pct", func(r ModeRow) float64 { return r.SlowdownPct }),
				goldenModes("mflops_per_chip_gain", func(r ModeRow) float64 { return r.MFLOPSPerChipGain }),
			},
		}),
		study("extension: prefetch sweep", PrefetchSweep, view[PrefetchRow]{
			selectors: []string{"-ext prefetch"}, names: suite, render: RenderPrefetch,
		}),
		study("extension: L3 prefetch sweep", L3PrefetchSweep, view[PrefetchRow]{
			selectors: []string{"-ext l3prefetch"}, names: suite, render: RenderL3Prefetch,
		}),
		study("extension: hybrid MPI+OpenMP", HybridModes, view[HybridRow]{
			selectors: []string{"-ext hybrid"}, names: suite, render: RenderHybrid,
		}),
	}
}
