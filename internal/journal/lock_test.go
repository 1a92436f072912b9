//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSecondOpenRefused pins the one-writer rule in one process: a second
// Open of a held log fails with ErrLocked and names the path, still does
// after Compact has renamed a new file over the old one, and succeeds once
// the holder closes.
func TestSecondOpenRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "JOURNAL.wal")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path)
	if !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), path) {
		t.Fatalf("second Open of a held log: err = %v, want ErrLocked naming %s", err, path)
	}
	if err := j.Compact(sampleRecords()[:1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open after Compact: err = %v, want ErrLocked", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open after the holder closed: %v", err)
	}
	defer j2.Close()
	if len(recs) != 1 {
		t.Fatalf("reopened log replays %d records, want the 1 compacted", len(recs))
	}
}

// holdEnv names the log a re-executed test binary holds open until killed.
const holdEnv = "JOURNAL_TEST_HOLD"

// TestLockDiesWithHolder holds a log open in a child process, requires it
// refused here, kills the child with SIGKILL — no Close, no deferred
// cleanup — and requires the next Open to succeed at once: a crashed
// holder leaves nothing to wait out.
func TestLockDiesWithHolder(t *testing.T) {
	if path := os.Getenv(holdEnv); path != "" {
		if _, _, err := Open(path); err != nil {
			fmt.Println(err)
			os.Exit(2)
		}
		fmt.Println("held")
		time.Sleep(time.Minute)
		os.Exit(3)
	}

	path := filepath.Join(t.TempDir(), "JOURNAL.wal")
	child := exec.Command(os.Args[0], "-test.run=^TestLockDiesWithHolder$", "-test.timeout=2m")
	child.Env = append(os.Environ(), holdEnv+"="+path)
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()
	if line, _ := bufio.NewReader(out).ReadString('\n'); line != "held\n" {
		t.Fatalf("child did not take the lock: %q", line)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("Open of a log another process holds: err = %v, want ErrLocked", err)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	j, _, err := Open(path)
	if err != nil {
		t.Fatalf("Open after the holder was killed: %v", err)
	}
	j.Close()
}
