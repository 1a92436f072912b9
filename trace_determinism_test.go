package bgp_test

// Determinism of the observability layer itself. Traces are keyed by sim
// cycles, not wall time, and every span carries its run label, so the only
// thing host-side parallelism may change is the interleaving of *lines*
// from different runs in the shared output. Sorted, the traces must be
// byte-identical at any worker count — the same guarantee the counter
// dumps give, extended to the tracer.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bgpsim/internal/experiments"
	"bgpsim/internal/obs"
)

// fig6Trace runs the Figure 6 profile sweep at the quick scale with a
// recorder and tracer attached, and returns the raw trace bytes plus the
// registry snapshot.
func fig6Trace(t *testing.T, jobs int) ([]byte, obs.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	tr := obs.NewTracer(&buf)
	rec := obs.NewRecorder(reg, tr)

	s := experiments.QuickScale()
	s.Workers = jobs
	s.Observer = rec
	if _, err := experiments.Fig6Profile(s); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg.Snapshot()
}

func TestTraceDeterminism(t *testing.T) {
	serialTrace, serialSnap := fig6Trace(t, 1)
	poolTrace, poolSnap := fig6Trace(t, 4)

	if len(serialTrace) == 0 {
		t.Fatal("serial run produced an empty trace")
	}

	// Every line is a well-formed Chrome trace event with the fields the
	// documented schema promises.
	for _, line := range bytes.Split(bytes.TrimSuffix(serialTrace, []byte("\n")), []byte("\n")) {
		var ev struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Run string `json:"run"`
			} `json:"args"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if ev.Ph != "X" {
			t.Fatalf("trace line %q: phase %q, want complete event X", line, ev.Ph)
		}
		if ev.Cat != "rank" && ev.Cat != "kernel" && ev.Cat != "collective" {
			t.Fatalf("trace line %q: unknown span category %q", line, ev.Cat)
		}
		if ev.Args.Run == "" {
			t.Fatalf("trace line %q: missing run label", line)
		}
	}

	// Cross-run parallelism may interleave lines from different runs but
	// must not change any line: sorted, the traces are byte-identical.
	if !bytes.Equal(obs.SortedBytes(serialTrace), obs.SortedBytes(poolTrace)) {
		t.Errorf("sorted traces differ between -jobs=1 (%d bytes) and -jobs=4 (%d bytes)",
			len(serialTrace), len(poolTrace))
	}

	// The aggregated sim-derived counters are sums of per-run values, so
	// they match exactly too. Phase counters measure host wall time, and
	// the host-cache hit/miss splits (sim.progcache.*, sim.epochmemo.*)
	// depend on process-wide cache warmth — both families describe how the
	// host computed the run, never what it computed, so they are the
	// legitimately nondeterministic ones.
	if len(serialSnap.Counters) == 0 {
		t.Fatal("serial run recorded no counters")
	}
	for name, v := range serialSnap.Counters {
		if hostSideCounter(name) {
			continue
		}
		if pv := poolSnap.Counters[name]; pv != v {
			t.Errorf("counter %s: serial %d, pool %d", name, v, pv)
		}
	}
	if serialSnap.Counters[obs.MetricSpans] == 0 {
		t.Errorf("no %s counter recorded", obs.MetricSpans)
	}
	if serialSnap.Counters[obs.MetricRuns] != 8 {
		t.Errorf("%s = %d, want 8 (one per suite benchmark)",
			obs.MetricRuns, serialSnap.Counters[obs.MetricRuns])
	}
}

// hostSideCounter reports whether a counter describes host-side execution
// (wall time, process-wide cache warmth) rather than simulation results.
func hostSideCounter(name string) bool {
	return strings.HasPrefix(name, obs.MetricPhaseNSPrefix) ||
		strings.HasPrefix(name, obs.MetricProgCachePrefix) ||
		strings.HasPrefix(name, obs.MetricEpochMemoPrefix)
}
