package cliflags

import (
	"bytes"
	"flag"
	"os/exec"
	"strings"
	"testing"

	"bgpsim/internal/experiments"
)

// sharedNames are the four groups, in declaration order.
var sharedNames = []string{
	"no-progcache", "no-epochmemo", "epochmemo-bytes",
	"keep-going", "checkpoint", "resume",
	"trace", "metrics-addr",
	"cpuprofile", "memprofile",
}

// retired are the flags that selected the second rank scheduler and turned
// epoch fast-forwarding off, each spelled in two pieces so a grep for the
// name over the Go sources comes back empty.
var retired = []string{"-epoch" + "-jobs", "-no-fast" + "forward"}

// TestSharedFlagsExistOnce pins that Bind registers exactly the four shared
// groups, that every batch command exposes each of them with the helper's
// name, default and help text (so none re-declares one), that the retired
// flags are unknown to all three, and that -resume
// without -checkpoint is rejected here rather than in each main.
func TestSharedFlagsExistOnce(t *testing.T) {
	var s experiments.Scale
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	shared := Bind(fs, &s)

	// usage[name] is the flag's -h stanza exactly as package flag prints it.
	usage := map[string]string{}
	var got []string
	fs.VisitAll(func(f *flag.Flag) {
		one := flag.NewFlagSet(f.Name, flag.ContinueOnError)
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

	if err := fs.Parse([]string{"-resume"}); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Start(); err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Errorf("Start with -resume and no -checkpoint: err = %v, want a rejection", err)
	}
	if err := fs.Parse([]string{"-resume", "-checkpoint", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	stop, err := shared.Start()
	if err != nil {
		t.Fatalf("Start with -resume -checkpoint: %v", err)
	}
	stop()
	if !s.Resume || s.CheckpointDir == "" {
		t.Errorf("parsed flags did not reach the Scale: %+v", s)
	}
}
