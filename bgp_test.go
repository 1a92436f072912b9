package bgp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(RunConfig{
		Benchmark: "mg",
		Class:     ClassS,
		Ranks:     8,
		Mode:      VNM,
		Opts:      Options{Level: O5, Arch440d: true},
		DumpDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MFLOPS <= 0 {
		t.Errorf("MFLOPS = %g", res.Metrics.MFLOPS)
	}
	if res.Metrics.SIMDShare < 0.5 {
		t.Errorf("MG at -O5 -qarch=440d: SIMD share %.2f", res.Metrics.SIMDShare)
	}
	if res.Metrics.ExecCycles == 0 || res.Metrics.DDRTrafficBytes == 0 {
		t.Error("missing derived metrics")
	}
	if res.Config.Nodes != 2 || len(res.Dumps) != 2 {
		t.Errorf("nodes=%d dumps=%d, want 2/2", res.Config.Nodes, len(res.Dumps))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.bgpc"))
	if err != nil || len(files) != 2 {
		t.Errorf("dump files: %v (%v)", files, err)
	}
	if _, err := os.Stat(files[0]); err != nil {
		t.Error(err)
	}
}

func TestRunModesDiffer(t *testing.T) {
	base := RunConfig{
		Benchmark: "ep",
		Class:     ClassS,
		Ranks:     8,
		Opts:      Options{Level: O3},
	}
	vnm := base
	vnm.Mode = VNM
	smp := base
	smp.Mode = SMP1
	rv, err := Run(vnm)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(smp)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.Nodes != 2 || rs.Config.Nodes != 8 {
		t.Errorf("nodes: VNM=%d SMP1=%d, want 2/8", rv.Config.Nodes, rs.Config.Nodes)
	}
}

func TestRunL3Override(t *testing.T) {
	res, err := Run(RunConfig{
		Benchmark: "cg",
		Class:     ClassS,
		Ranks:     4,
		Mode:      VNM,
		L3Bytes:   -1, // disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.L3MissRate != 0 {
		t.Errorf("L3 disabled but miss rate = %g", res.Metrics.L3MissRate)
	}
	if res.Metrics.DDRTrafficBytes == 0 {
		t.Error("no DDR traffic with L3 disabled")
	}
}

// TestRunRejectsSubLineL3: an L3 of less than one 128-byte line per bank has
// no geometry (it used to panic booting the node); Run names the field and
// the minimum instead, and the minimum itself boots and runs.
func TestRunRejectsSubLineL3(t *testing.T) {
	cfg := RunConfig{Benchmark: "ep", Class: ClassS, Ranks: 4, Mode: VNM}
	for _, size := range []int{1, 100, 255} {
		cfg.L3Bytes = size
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "L3Bytes") || !strings.Contains(err.Error(), "256-byte minimum") {
			t.Errorf("L3Bytes %d: error %v, want one naming L3Bytes and the 256-byte minimum", size, err)
		}
	}
	cfg.L3Bytes = MinL3Bytes
	if _, err := Run(cfg); err != nil {
		t.Errorf("L3Bytes %d: %v", MinL3Bytes, err)
	}
}

func TestRunSquareRanksAdjusted(t *testing.T) {
	res, err := Run(RunConfig{
		Benchmark: "sp",
		Class:     ClassS,
		Ranks:     8,
		Mode:      VNM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Ranks != 4 {
		t.Errorf("sp ranks = %d, want 4 (largest square ≤ 8)", res.Config.Ranks)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunConfig{Benchmark: "nope", Class: ClassS, Ranks: 4}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(RunConfig{Benchmark: "mg", Class: ClassS, Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(RunConfig{Benchmark: "mg", Class: ClassS, Ranks: 64, Nodes: 1, Mode: VNM}); err == nil {
		t.Error("oversubscribed partition accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 8 || names[0] != "mg" || names[7] != "bt" {
		t.Errorf("Benchmarks() = %v", names)
	}
}

func TestParseHelpers(t *testing.T) {
	c, err := ParseClass("c")
	if err != nil || c != ClassC {
		t.Errorf("ParseClass: %v %v", c, err)
	}
	o, err := ParseOptions("-O5 -qarch=440d")
	if err != nil || o.Level != O5 || !o.Arch440d {
		t.Errorf("ParseOptions: %+v %v", o, err)
	}
}
