package bgp_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameExistingTests reads every `go test … -run '<a|b|c>'`
// step out of the CI workflow and requires each alternative to match at
// least one Test or Fuzz function in the packages the step names. `go test
// -run` on a name that no longer exists passes silently, so a renamed or
// deleted test would otherwise drop out of its CI gate unnoticed.
func TestCIRunPatternsNameExistingTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	raw, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	// Join shell line continuations so a step's -run and its package
	// arguments sit on one line.
	text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(raw), " ")

	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	quoted := regexp.MustCompile(`'[^']*'`)
	steps := 0
	for _, line := range strings.Split(text, "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		steps++
		line = strings.TrimSpace(line)
		var names []string
		for _, arg := range strings.Fields(quoted.ReplaceAllString(line, "")) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				names = append(names, testFuncNames(t, arg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s: -run alternative %q: %v", workflow, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				matched = matched || re.MatchString(name)
			}
			if !matched {
				t.Errorf("%s: -run alternative %q matches no Test/Fuzz function in the step's packages: %s", workflow, alt, line)
			}
		}
	}
	if steps == 0 {
		t.Fatalf("%s: found no `go test -run '…'` step; the extraction is broken", workflow)
	}
}

// testFuncNames returns the Test and Fuzz functions declared in the package
// directory dir.
func testFuncNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("package %s has no test files (err %v)", dir, err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}
