//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package server_test

import (
	"errors"
	"strings"
	"testing"

	"bgpsim/internal/journal"
	"bgpsim/internal/server"
)

// TestOneServerPerCheckpointDir requires a second server on a directory a
// live one holds to be refused, naming the directory, before it replays or
// compacts a byte of the live one's journal; the live one's job must finish
// untouched, and a server started after the holder closes must replay it.
func TestOneServerPerCheckpointDir(t *testing.T) {
	ckptDir := t.TempDir()
	s1, ts1 := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	id := submitJob(t, ts1.URL, server.JobSpec{Tenant: "one", Runs: fastSpecs()[:1]}).ID

	if s, err := server.New(server.Config{CheckpointDir: ckptDir}); err == nil {
		s.Close()
		t.Fatal("a second server started on a directory a live one holds")
	} else if !errors.Is(err, journal.ErrLocked) || !strings.Contains(err.Error(), ckptDir) {
		t.Fatalf("second server: err = %v, want journal.ErrLocked naming %s", err, ckptDir)
	}
	if st := waitDone(t, ts1.URL, id); st.State != server.StateDone {
		t.Fatalf("the holder's job ended %s: %s", st.State, st.Error)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, server.Config{CheckpointDir: ckptDir})
	if st := waitDone(t, ts2.URL, id); st.State != server.StateDone {
		t.Fatalf("the next server replays job %s as %s: %s", id, st.State, st.Error)
	}
}
