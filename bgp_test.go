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
// no geometry (it used to panic booting the node), and an unbounded L3 size
// or prefetch depth used to reach an allocation sized by it (a depth of
// 1<<40 is a fatal out-of-memory throw no recover sees). Run names the field
// and the bound instead, and each per-node bound itself boots and runs. The
// partition bound is only probed one node over it, at 64 MB and at the
// default 8 MB per node: a partition at it books gigabytes of host memory.
func TestRunRejectsSubLineL3(t *testing.T) {
	l3 := func(c *RunConfig, v int) { c.L3Bytes = v }
	l2pf := func(c *RunConfig, v int) { c.L2PrefetchDepth = v }
	l3pf := func(c *RunConfig, v int) { c.L3PrefetchDepth = v }
	nodesAt := func(l3Bytes int) func(*RunConfig, int) {
		return func(c *RunConfig, v int) { c.Nodes, c.L3Bytes = v, l3Bytes }
	}
	for _, tc := range []struct {
		field string
		set   func(*RunConfig, int)
		value int
		want  string // substring of the error; empty = the run succeeds
	}{
		{"L3Bytes", l3, 1, "256-byte minimum"},
		{"L3Bytes", l3, 100, "256-byte minimum"},
		{"L3Bytes", l3, 255, "256-byte minimum"},
		{"L3Bytes", l3, MinL3Bytes, ""},
		{"L3Bytes", l3, MaxL3Bytes, ""},
		{"L3Bytes", l3, MaxL3Bytes + 1, "67108864-byte maximum"},
		{"L2PrefetchDepth", l2pf, MaxPrefetchDepth, ""},
		{"L2PrefetchDepth", l2pf, MaxPrefetchDepth + 1, "maximum of 64"},
		{"L2PrefetchDepth", l2pf, 1 << 40, "maximum of 64"},
		{"L3PrefetchDepth", l3pf, MaxPrefetchDepth, ""},
		{"L3PrefetchDepth", l3pf, MaxPrefetchDepth + 1, "maximum of 64"},
		{"L3PrefetchDepth", l3pf, 1 << 40, "maximum of 64"},
		{"Nodes × L3Bytes", nodesAt(MaxL3Bytes), MaxPartitionL3Bytes/MaxL3Bytes + 1, "8589934592-byte maximum"},
		{"Nodes × L3Bytes", nodesAt(0), MaxPartitionL3Bytes/(8<<20) + 1, "8589934592-byte maximum"},
	} {
		cfg := RunConfig{Benchmark: "ep", Class: ClassS, Ranks: 4, Mode: VNM}
		tc.set(&cfg, tc.value)
		_, err := Run(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %d: %v", tc.field, tc.value, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s %d: error %v, want one naming %s and the %s", tc.field, tc.value, err, tc.field, tc.want)
		}
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
