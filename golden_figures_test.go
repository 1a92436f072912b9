package bgp_test

// The golden-figure regression harness. Every table of the paper's
// evaluation (Figures 6-14) is rendered to canonical CSV cells and diffed
// cell-by-cell against the committed snapshots under testdata/golden. A
// failure means the simulated numbers moved — an accounting change, a
// perturbed interleaving, a formula edit — and the diff names the exact
// figure, row and column. When a change is intentional, regenerate with
//
//	go test -run TestGoldenFigures -update
//
// and review the CSV diff like any other code change.

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bgpsim/internal/experiments"
	"bgpsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current pipeline")

func TestGoldenFigures(t *testing.T) {
	s := experiments.QuickScale()
	tables, err := experiments.GoldenFigures(s)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range experiments.GoldenFigureNames() {
		table, ok := tables[name]
		if !ok {
			t.Fatalf("GoldenFigures returned no table %q", name)
		}
		path := filepath.Join("testdata", "golden", name+".csv")
		t.Run(name, func(t *testing.T) {
			if *updateGolden {
				writeGoldenCSV(t, path, table)
				return
			}
			want := readGoldenCSV(t, path)
			diffTables(t, name, want, table)
		})
	}
}

// TestGoldenPassSimulatesEachIdentityOnce pins the pass's result table: the
// 24 points that figures share are served from the run of their first
// occurrence, so a cold pass simulates each of its 96 identities once and
// the epoch memo, which records an identity only on its second sight,
// records nothing. The table lives for one call; the next simulates again.
func TestGoldenPassSimulatesEachIdentityOnce(t *testing.T) {
	forgetEpochMemo()
	rec := &runLog{Recorder: obs.NewRecorder(obs.NewRegistry(), nil)}
	s := experiments.QuickScale()
	s.Observer = rec
	pass := func(s experiments.Scale) (map[string][][]string, []obs.RunStats) {
		t.Helper()
		from := len(rec.runs)
		tables, err := experiments.GoldenFigures(s)
		if err != nil {
			t.Fatal(err)
		}
		return tables, rec.runs[from:]
	}
	// split checks a pass's RunDones: every served point has a simulated
	// twin of its label and reports nothing simulated.
	split := func(which string, runs []obs.RunStats) (simulated int) {
		t.Helper()
		labels := map[string]bool{}
		for _, st := range runs {
			if !st.Served {
				simulated++
				labels[st.Label] = true
			}
		}
		for _, st := range runs {
			switch {
			case !st.Served:
			case !labels[st.Label]:
				t.Errorf("%s pass: served point %q has no simulated twin", which, st.Label)
			case st != obs.RunStats{Label: st.Label, Served: true}:
				t.Errorf("%s pass: served point reports simulated work: %+v", which, st)
			}
		}
		if len(runs) != 120 || simulated != 96 {
			t.Errorf("%s pass: %d RunDones, %d simulated; want 120 with 96 simulated and 24 served", which, len(runs), simulated)
		}
		return simulated
	}

	// A checkpoint directory names every simulated run by its identity's
	// hash, which is how the test counts the distinct identities.
	cold := s
	cold.CheckpointDir = t.TempDir()
	first, runs := pass(cold)
	simulated := split("cold", runs)
	entries, err := os.ReadDir(cold.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	identities := map[string]bool{}
	for _, e := range entries {
		if _, hash, ok := strings.Cut(e.Name(), "-"); ok && e.IsDir() {
			identities[hash] = true
		}
	}
	if len(entries) != simulated || len(identities) != simulated {
		t.Errorf("cold pass: %d simulated runs persisted %d entries over %d identities; want one run per identity",
			simulated, len(entries), len(identities))
	}
	var stores, flattens uint64
	for _, st := range runs {
		stores += st.EpochMemoStores
		flattens += st.EpochMemoFlattens
	}
	if stores != 0 || flattens != 0 {
		t.Errorf("cold pass: %d epoch-memo stores and %d flattens; want none, since no identity is seen twice", stores, flattens)
	}

	// Nothing survives the call: the next one simulates every identity
	// again (and, being their second sight, records them).
	second, runs := pass(s)
	split("second", runs)
	if !reflect.DeepEqual(first, second) {
		t.Error("the second pass's tables differ from the first's")
	}
}

func writeGoldenCSV(t *testing.T, path string, table [][]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(table); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows)", path, len(table))
}

func readGoldenCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestGoldenFigures -update)", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// diffTables compares two tables cell by cell and reports every divergent
// cell by figure, row and column header, so a regression reads like a
// review comment rather than a blob diff.
func diffTables(t *testing.T, figure string, want, got [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, golden has %d", figure, len(got), len(want))
	}
	for r := 0; r < len(want) && r < len(got); r++ {
		if len(got[r]) != len(want[r]) {
			t.Errorf("%s row %d: %d columns, golden has %d", figure, r, len(got[r]), len(want[r]))
		}
		for c := 0; c < len(want[r]) && c < len(got[r]); c++ {
			if got[r][c] == want[r][c] {
				continue
			}
			col := ""
			if len(want) > 0 && c < len(want[0]) {
				col = want[0][c]
			}
			row := ""
			if len(want[r]) > 0 {
				row = want[r][0]
			}
			t.Errorf("%s [%s × %s] (row %d, col %d): got %q, golden %q",
				figure, row, col, r, c, got[r][c], want[r][c])
		}
	}
}
