package server_test

// A done job's results live only in the checkpoint store, so a fetch that
// finds the run's entry gone or damaged must re-resolve the run — serving
// the simulator's bytes and repairing the entry — rather than fail.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/faults"
	"bgpsim/internal/server"
)

// fetchCSV GETs a completed job's metrics CSV.
func fetchCSV(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result returned %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestResultRepairsLostEntry damages a done job's only run in the store —
// its directory removed after the job completed, or its dumps persisted
// corrupt by an armed faults.CorruptDump — and requires the result route
// to serve the golden dumps and the undamaged CSV rows, to leave an entry
// Restore validates, and to count exactly one repair, whichever of the two
// routes meets the damage first. An out-of-range node stays a 404 that
// simulates nothing.
func TestResultRepairsLostEntry(t *testing.T) {
	rs := fastSpecs()[1]
	cfg := compileSpec(t, rs)
	key := bgp.RunKey(0, cfg)
	golden := goldenDumps(t, cfg)

	// The reference CSV comes from an undamaged store.
	_, ref := newTestServer(t, server.Config{})
	st := waitDone(t, ref.URL, submitJob(t, ref.URL, server.JobSpec{Runs: []server.RunSpec{rs}}).ID)
	if st.State != server.StateDone {
		t.Fatalf("reference job ended %s: %s", st.State, st.Error)
	}
	wantCSV := fetchCSV(t, ref.URL, st.ID)

	type damage struct {
		name   string
		faults func() *faults.Injector
		damage func(t *testing.T, ckptDir string)
	}
	fetchDumps := func(t *testing.T, base, id string) {
		for node := range golden {
			if got := fetchDump(t, base, id, 0, node); !bytes.Equal(got, golden[node]) {
				t.Errorf("node %d: served dump differs from bgp.Run's", node)
			}
		}
	}
	fetchRows := func(t *testing.T, base, id string) {
		if got := fetchCSV(t, base, id); !bytes.Equal(got, wantCSV) {
			t.Errorf("CSV after the damage:\n%s\nwant:\n%s", got, wantCSV)
		}
	}
	for _, tc := range []damage{
		{"directory removed", func() *faults.Injector { return nil }, func(t *testing.T, ckptDir string) {
			if err := os.RemoveAll(filepath.Join(ckptDir, key)); err != nil {
				t.Fatal(err)
			}
		}},
		{"persisted corrupt", func() *faults.Injector {
			inj := faults.New(7)
			inj.Arm(key, faults.CorruptDump)
			return inj
		}, func(*testing.T, string) {}},
	} {
		for _, order := range []struct {
			name   string
			fetch  func(t *testing.T, base, id string)
			second func(t *testing.T, base, id string)
		}{{"dump first", fetchDumps, fetchRows}, {"csv first", fetchRows, fetchDumps}} {
			t.Run(tc.name+"/"+order.name, func(t *testing.T) {
				ckptDir := t.TempDir()
				s, ts := newTestServer(t, server.Config{CheckpointDir: ckptDir, Faults: tc.faults()})
				st := waitDone(t, ts.URL, submitJob(t, ts.URL, server.JobSpec{Runs: []server.RunSpec{rs}}).ID)
				if st.State != server.StateDone {
					t.Fatalf("job ended %s: %s", st.State, st.Error)
				}
				tc.damage(t, ckptDir)
				if s.Store().Restore(key, cfg) != nil {
					t.Fatal("the damaged entry still validates; the test damages nothing")
				}
				counters := func() map[string]uint64 { return s.Registry().Snapshot().Counters }

				order.fetch(t, ts.URL, st.ID)
				order.second(t, ts.URL, st.ID)
				if s.Store().Restore(key, cfg) == nil {
					t.Error("the entry does not validate after the repairing fetch")
				}
				if n := counters()[server.MetricResultRepaired]; n != 1 {
					t.Errorf("%s = %d, want 1 for one lost run", server.MetricResultRepaired, n)
				}

				miss := counters()[server.MetricCacheMiss]
				resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?run=0&node=%d", ts.URL, st.ID, len(golden)))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("node %d of a %d-node run returned %d, want 404", len(golden), len(golden), resp.StatusCode)
				}
				if after := counters()[server.MetricCacheMiss]; after != miss {
					t.Errorf("the out-of-range fetch moved %s from %d to %d", server.MetricCacheMiss, miss, after)
				}
			})
		}
	}
}
