package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	bgp "bgpsim"
)

// TestOutputWriteErrorsFail pins that a CSV output that cannot be written
// is an error exit, not a "wrote …" line: -metrics and -stats pointed at
// /dev/full must fail, and the same invocation at a real file must succeed.
func TestOutputWriteErrorsFail(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this host")
	}
	dumps := t.TempDir()
	if _, err := bgp.Run(bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassS, Ranks: 4, Mode: bgp.VNM, DumpDir: dumps}); err != nil {
		t.Fatal(err)
	}
	mine := func(flagName, path string) (string, error) {
		out, err := exec.Command("go", "run", "bgpsim/cmd/bgpmine", "-dir", dumps, flagName, path).CombinedOutput()
		return string(out), err
	}
	for _, flagName := range []string{"-metrics", "-stats"} {
		if out, err := mine(flagName, "/dev/full"); err == nil || strings.Contains(out, "wrote /dev/full") {
			t.Errorf("%s /dev/full: err = %v, want a non-zero exit and no success line\n%s", flagName, err, out)
		}
		ok := filepath.Join(t.TempDir(), "out.csv")
		if out, err := mine(flagName, ok); err != nil || !strings.Contains(out, "wrote "+ok) {
			t.Errorf("%s %s: err = %v, want success\n%s", flagName, ok, err, out)
		}
	}
}
