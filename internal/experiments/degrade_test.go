package experiments

// Graceful degradation: with ContinueOnError, a figure whose runs fail (or are
// absent from the checkpoint under ResumeOnly) still renders, with every
// missing point marked explicitly — in the row data, in the table cells,
// and in the trailing partial note.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/machine"
	"bgpsim/internal/nas"
	"bgpsim/internal/postproc"
)

// TestFigureDegradesWithEmptyCheckpoint renders the compiler study from an
// empty checkpoint under ResumeOnly + ContinueOnError: no simulation executes,
// every point is Missing, and the report says exactly what is absent.
func TestFigureDegradesWithEmptyCheckpoint(t *testing.T) {
	ms := &MissingSet{}
	s := Scale{
		Class: nas.ClassS, Ranks: 4,
		SweepConfig: bgp.SweepConfig{ContinueOnError: true, CheckpointDir: t.TempDir(), ResumeOnly: true},
		Missing:     ms,
	}
	rows, err := Fig910ExecTimes([]string{"mg"}, s)
	if err != nil {
		t.Fatalf("ContinueOnError figure failed outright: %v", err)
	}
	if len(rows) != 1 || len(rows[0].Points) != len(CompilerConfigs()) {
		t.Fatalf("degraded figure lost its shape: %+v", rows)
	}
	for _, p := range rows[0].Points {
		if !p.Missing {
			t.Errorf("build %v not marked missing with an empty checkpoint", p.Opts)
		}
	}
	if ms.Missing() != len(CompilerConfigs()) || ms.Total() != len(CompilerConfigs()) {
		t.Errorf("missing set = %d/%d, want %d/%d", ms.Missing(), ms.Total(), len(CompilerConfigs()), len(CompilerConfigs()))
	}
	for _, label := range ms.Labels() {
		if !strings.HasPrefix(label, "mg.S VNM") {
			t.Errorf("missing-point label %q does not identify the point", label)
		}
	}

	var buf bytes.Buffer
	RenderExecTimes(&buf, rows, "Figure 9")
	out := buf.String()
	if !strings.Contains(out, missingCell) {
		t.Error("rendered table has no missing-point cells")
	}
	want := "partial: 7 of 7 points missing"
	if !strings.Contains(out, want) {
		t.Errorf("rendered table lacks %q:\n%s", want, out)
	}
}

// TestFigureRendersPartialCheckpoint completes a checkpointed figure, then
// destroys one run's artifact: the ResumeOnly re-render restores every
// other point, marks only the damaged one missing, and the completed
// points' values are untouched by the degradation machinery.
func TestFigureRendersPartialCheckpoint(t *testing.T) {
	ckpt := t.TempDir()
	full := Scale{Class: nas.ClassS, Ranks: 4, SweepConfig: bgp.SweepConfig{CheckpointDir: ckpt}}
	clean, err := Fig910ExecTimes([]string{"mg"}, full)
	if err != nil {
		t.Fatal(err)
	}

	// Destroy one run's dump files (keep its entry record: validation, not
	// bookkeeping, must catch it).
	ents, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, e := range ents {
		if e.IsDir() {
			victim = e.Name()
			break
		}
	}
	if victim == "" {
		t.Fatal("checkpoint has no run directories")
	}
	dumps, err := filepath.Glob(filepath.Join(ckpt, victim, "*.bgpc"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("run directory %s has no dump files (%v)", victim, err)
	}
	for _, name := range dumps {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}

	ms := &MissingSet{}
	partial := Scale{
		Class: nas.ClassS, Ranks: 4,
		SweepConfig: bgp.SweepConfig{ContinueOnError: true, CheckpointDir: ckpt, ResumeOnly: true},
		Missing:     ms,
	}
	rows, err := Fig910ExecTimes([]string{"mg"}, partial)
	if err != nil {
		t.Fatal(err)
	}
	nMissing := 0
	for k, p := range rows[0].Points {
		if p.Missing {
			nMissing++
			continue
		}
		if p != clean[0].Points[k] {
			t.Errorf("restored point %v differs from the clean run: %+v vs %+v", p.Opts, p, clean[0].Points[k])
		}
	}
	if nMissing != 1 || ms.Missing() != 1 {
		t.Errorf("missing points = %d (set %d), want exactly the destroyed run", nMissing, ms.Missing())
	}
}

// TestRenderModesSkipsMissingRowsFromMeans pins that the Figures 12-14
// means cover complete rows only and missing rows render as dashes.
func TestRenderModesSkipsMissingRowsFromMeans(t *testing.T) {
	m := &postproc.Metrics{}
	rows := []ModeRow{
		{Benchmark: "mg", VNM: m, SMP: m, TrafficRatio: 3, SlowdownPct: 30, MFLOPSPerChipGain: 2},
		{Benchmark: "ft", Missing: true},
		{Benchmark: "cg", VNM: m, SMP: m, TrafficRatio: 5, SlowdownPct: 50, MFLOPSPerChipGain: 4},
	}
	var buf bytes.Buffer
	RenderModes(&buf, rows)
	out := buf.String()
	// Mean of {3,5} and {2,4}, not dragged down by ft's zeros.
	if !strings.Contains(out, "mean") || !strings.Contains(out, "4.00") || !strings.Contains(out, "3.00") {
		t.Errorf("means include the missing row:\n%s", out)
	}
	if !strings.Contains(out, missingCell) {
		t.Errorf("missing row has no dash cells:\n%s", out)
	}
	if !strings.Contains(out, "partial: 1 of 3 points missing") {
		t.Errorf("no partial note:\n%s", out)
	}
}

// TestPointLabel pins the diagnostic label format the missing-point report
// prints.
func TestPointLabel(t *testing.T) {
	cfg := bgp.RunConfig{
		Benchmark: "ft", Class: nas.ClassC, Ranks: 128,
		Mode: machine.SMP1, Opts: BestBuild(), L3Bytes: 2 << 20,
	}
	got := bgp.PointLabel(cfg)
	for _, part := range []string{"ft.C", "SMP/1", "l3=2MB"} {
		if !strings.Contains(got, part) {
			t.Errorf("PointLabel = %q, missing %q", got, part)
		}
	}
	cfg.L3Bytes = -1
	if got := bgp.PointLabel(cfg); !strings.Contains(got, "l3=off") {
		t.Errorf("PointLabel = %q, want l3=off for a disabled L3", got)
	}
}
