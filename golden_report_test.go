package bgp_test

// The rendered-text half of the golden harness. TestGoldenFigures pins the
// numbers; this pins what bgpreport prints from them — table layout, cell
// formats, ratio columns, the order and slicing of the study catalog —
// against the report the commit before the catalog existed printed, and
// what bgpreport's walk of the catalog simulates to print it. The files are
// bgpreport's stdout, header included; regenerate with
//
//	go run ./cmd/bgpreport -class W -ranks 16 > testdata/golden/report_W16.txt
//	go run ./cmd/bgpreport -class S -ranks 4 > testdata/golden/report_S4.txt
//
// and review the diff like any other code change.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/experiments"
	"bgpsim/internal/obs"
)

func TestGoldenReportText(t *testing.T) {
	s, file := experiments.QuickScale(), "report_W16.txt"
	if testing.Short() {
		s, file = experiments.Scale{Class: bgp.ClassS, Ranks: 4}, "report_S4.txt"
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	// The header (title, scale, blank line) is bgpreport's own; the catalog's
	// text starts after it.
	_, want, ok := strings.Cut(string(golden), "\n\n")
	if !ok {
		t.Fatalf("%s has no header", file)
	}

	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
	s.Observer = rec
	var got bytes.Buffer
	if err := experiments.Report(s, &got, func(string) {}); err != nil {
		t.Fatal(err)
	}
	// The walk is one pass: a point several studies share is simulated at
	// its first occurrence and served to the rest, so the catalog's 208
	// points cost 168 simulations at any scale.
	simulated := 0
	for _, st := range rec.runs {
		if !st.Served {
			simulated++
		}
	}
	if len(rec.runs) != 208 || simulated != 168 {
		t.Errorf("report walk: %d RunDones, %d simulated; want 208 with 168 simulated and 40 served", len(rec.runs), simulated)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("report has %d lines, %s has %d", len(gotLines), file, len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestStudyCatalog holds the catalog to the surfaces that index it: every
// bgpsweep selector names exactly one study, the golden tables are the
// catalog's figures, and DESIGN.md §3 lists every selector.
func TestStudyCatalog(t *testing.T) {
	var want []string
	for fig := 6; fig <= 14; fig++ {
		want = append(want, fmt.Sprintf("-fig %d", fig))
	}
	want = append(want, "-ext prefetch", "-ext l3prefetch", "-ext hybrid")

	owners := map[string]int{}
	for _, st := range experiments.Studies() {
		if st.Step == "" || st.Run == nil {
			t.Errorf("study %+v lacks a step name or a Run", st.Selectors)
		}
		for _, selector := range st.Selectors {
			owners[selector]++
		}
	}
	for _, selector := range want {
		if owners[selector] != 1 {
			t.Errorf("selector %q belongs to %d studies, want exactly 1", selector, owners[selector])
		}
		if _, ok := experiments.Lookup(selector); !ok {
			t.Errorf("Lookup(%q) finds no study", selector)
		}
	}
	if len(owners) != len(want) {
		t.Errorf("catalog has %d selectors, want the %d bgpsweep documents: %v", len(owners), len(want), owners)
	}
	if _, ok := experiments.Lookup("-fig 15"); ok {
		t.Error("Lookup resolves a figure the paper does not have")
	}

	names := experiments.GoldenFigureNames()
	csvs, err := filepath.Glob(filepath.Join("testdata", "golden", "fig*.csv"))
	if err != nil || len(csvs) != len(names) {
		t.Errorf("%d golden figure names, %d committed fig*.csv (err %v)", len(names), len(csvs), err)
	}
	for _, name := range names {
		fig, err := strconv.Atoi(strings.TrimPrefix(name, "fig"))
		if err != nil {
			t.Errorf("golden figure name %q is not fig<number>", name)
			continue
		}
		if owners[fmt.Sprintf("-fig %d", fig)] != 1 {
			t.Errorf("golden figure %q maps onto no catalog selector", name)
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := regexp.MustCompile(`(?s)\n## 3\. .*?\n## 4\. `).Find(design)
	if index == nil {
		t.Fatal("DESIGN.md has no §3 between its §3 and §4 headings")
	}
	for selector := range owners {
		if !bytes.Contains(index, []byte("`bgpsweep "+selector+"`")) {
			t.Errorf("DESIGN.md §3 has no Regenerate entry `bgpsweep %s`", selector)
		}
	}
}
