package cliflags

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bgpsim/internal/experiments"
)

// sharedNames are the four groups, in declaration order.
var sharedNames = []string{
	"no-progcache", "no-epochmemo", "epochmemo-bytes",
	"checkpoint",
	"trace", "metrics-addr",
	"cpuprofile", "memprofile",
}

// retired are the flags that selected the second rank scheduler, turned
// epoch fast-forwarding off, gathered failures instead of cancelling and
// restored from the checkpoint, each spelled in two pieces so a grep for
// the name over the Go sources comes back empty.
var retired = []string{"-epoch" + "-jobs", "-no-fast" + "forward", "-keep" + "-going", "-re" + "sume"}

// TestSharedFlagsExistOnce pins that Bind registers exactly the four shared
// groups, that every batch command exposes each of them with the helper's
// name, default and help text (so none re-declares one), that the retired
// flags are unknown to all three, and that parsing fills the Scale.
func TestSharedFlagsExistOnce(t *testing.T) {
	var s experiments.Scale
	fs := flag.NewFlagSet("shared", flag.PanicOnError)
	shared := Bind(fs, &s)

	// usage[name] is the flag's -h stanza exactly as package flag prints it.
	usage := map[string]string{}
	var got []string
	fs.VisitAll(func(f *flag.Flag) {
		one := flag.NewFlagSet(f.Name, flag.PanicOnError)
		one.Var(f.Value, f.Name, f.Usage)
		var buf bytes.Buffer
		one.SetOutput(&buf)
		one.PrintDefaults()
		usage[f.Name] = buf.String()
		got = append(got, f.Name)
	})
	if len(got) != len(sharedNames) {
		t.Fatalf("Bind registered %v, want the %d shared flags %v", got, len(sharedNames), sharedNames)
	}
	for _, name := range sharedNames {
		if usage[name] == "" {
			t.Fatalf("Bind did not register -%s", name)
		}
	}

	for _, cmd := range []string{"bgprun", "bgpsweep", "bgpreport"} {
		out, err := exec.Command("go", "run", "bgpsim/cmd/"+cmd, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, out)
		}
		for _, name := range sharedNames {
			if !strings.Contains(string(out), usage[name]) {
				t.Errorf("%s -h does not show -%s as the helper declares it:\n%s", cmd, name, usage[name])
			}
		}
		for _, name := range retired {
			out, err = exec.Command("go", "run", "bgpsim/cmd/"+cmd, name, "2").CombinedOutput()
			if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+name) {
				t.Errorf("%s %s 2: err = %v, want an undefined-flag rejection\n%s", cmd, name, err, out)
			}
		}
	}

	if err := fs.Parse([]string{"-checkpoint", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	stop, err := shared.Start()
	if err != nil {
		t.Fatalf("Start with -checkpoint: %v", err)
	}
	stop()
	if s.CheckpointDir == "" {
		t.Errorf("parsed flags did not reach the Scale: %+v", s)
	}
}

// runCommand builds a batch command, runs it with args and returns its exit
// status, stdout and stderr.
func runCommand(t *testing.T, cmd string, args ...string) (int, string, string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), cmd)
	if out, err := exec.Command("go", "build", "-o", bin, "bgpsim/cmd/"+cmd).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", cmd, err, out)
	}
	c := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	c.Stdout, c.Stderr = &stdout, &stderr
	err := c.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("%s: %v", cmd, err)
	}
	return c.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestPartialOutputWithoutAFlag pins that a failed run never discards the
// others: bgprun prints the benchmark that completed, logs the one that
// failed and exits 3.
func TestPartialOutputWithoutAFlag(t *testing.T) {
	code, stdout, stderr := runCommand(t, "bgprun", "-bench", "mg,nosuch", "-class", "S", "-ranks", "4", "-jobs", "1")
	if code != 3 {
		t.Errorf("exit status %d, want 3\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "run:              mg.S") {
		t.Errorf("stdout lacks mg's metrics:\n%s", stdout)
	}
	if !strings.Contains(stderr, "failed: ") || !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr does not log the nosuch failure:\n%s", stderr)
	}
}

// TestReportWriteErrorFails pins that a report that cannot be written is an
// error: bgpreport -o on a full device exits 1 and names the write error.
func TestReportWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	code, _, stderr := runCommand(t, "bgpreport", "-class", "S", "-ranks", "4",
		"-checkpoint", t.TempDir(), "-from-checkpoint", "-o", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "no space left on device") {
		t.Errorf("exit status %d, want 1 with the write error logged:\n%s", code, stderr)
	}
}
