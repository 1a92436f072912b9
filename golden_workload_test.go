package bgp_test

// Golden regression for the workload-spec characterization figure: the HPL
// proxy (specs/hpl.yaml) rendered through the same canonical-CSV pipeline
// as the paper figures, diffed cell-by-cell against testdata/golden/hpl.csv.
// A failure means a spec-driven simulation's numbers moved; when the change
// is intentional, regenerate with
//
//	go test -run TestGoldenWorkload -update
//
// and review the CSV diff like any other code change. The golden runs at
// quick scale through the default (fully accelerated) path, so it also
// pins that spec workloads survive the epoch memo with their figures
// intact.

import (
	"path/filepath"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/experiments"
)

func TestGoldenWorkload(t *testing.T) {
	spec, err := bgp.LoadWorkloadSpec(filepath.Join("specs", "hpl.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := experiments.SpecCharacterization(spec, experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	table := experiments.GoldenSpec(pts)

	path := filepath.Join("testdata", "golden", spec.Name+".csv")
	if *updateGolden {
		writeGoldenCSV(t, path, table)
		return
	}
	want := readGoldenCSV(t, path)
	diffTables(t, spec.Name, want, table)
}
