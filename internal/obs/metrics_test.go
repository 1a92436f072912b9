package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(-5)
	g.Add(12)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	var wantSum uint64 = math.MaxUint64
	wantSum += 0 + 1 + 2 + 3 + 1024 // uint64 wrap-around is the documented Sum behavior
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d (wrapping)", h.Sum(), wantSum)
	}

	got := reg.Snapshot().Histograms["h"].Buckets
	want := []HistogramBucket{
		{Le: 0, Count: 1},              // the value 0
		{Le: 1, Count: 1},              // 1
		{Le: 3, Count: 2},              // 2, 3
		{Le: 2047, Count: 1},           // 1024
		{Le: math.MaxUint64, Count: 1}, // MaxUint64
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %+v, want %+v", got, want)
	}
}

func TestRegistryReturnsSameCell(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter(\"a\") returned distinct cells")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Error("Gauge(\"b\") returned distinct cells")
	}
	if reg.Histogram("c") != reg.Histogram("c") {
		t.Error("Histogram(\"c\") returned distinct cells")
	}
	want := []string{"a", "b", "c"}
	if got := reg.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestRegistryConcurrency hammers one registry from GOMAXPROCS goroutines —
// shared cells, first-use creation races, and Snapshot readers all at once —
// and asserts the final totals are exact. Run with -race; this test is the
// concurrency contract of the sweep-wide registry.
func TestRegistryConcurrency(t *testing.T) {
	const perG = 10_000
	workers := runtime.GOMAXPROCS(0)
	reg := NewRegistry()

	done := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
				reg.Names()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := reg.Counter("shared")
			hist := reg.Histogram("hist")
			gauge := reg.Gauge("gauge")
			for i := 0; i < perG; i++ {
				shared.Inc()
				hist.Observe(uint64(i))
				gauge.Add(1)
				// First-use creation racing against other workers
				// must still yield one shared cell.
				reg.Counter(fmt.Sprintf("per.%d", i%7)).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	snaps.Wait()

	total := uint64(workers) * perG
	snap := reg.Snapshot()
	if got := snap.Counters["shared"]; got != total {
		t.Errorf("shared counter = %d, want %d", got, total)
	}
	if got := snap.Gauges["gauge"]; got != int64(total) {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	h := snap.Histograms["hist"]
	if h.Count != total {
		t.Errorf("histogram count = %d, want %d", h.Count, total)
	}
	if want := uint64(workers) * (perG * (perG - 1) / 2); h.Sum != want {
		t.Errorf("histogram sum = %d, want %d", h.Sum, want)
	}
	var perTotal uint64
	for i := 0; i < 7; i++ {
		perTotal += snap.Counters[fmt.Sprintf("per.%d", i)]
	}
	if perTotal != total {
		t.Errorf("per.* counters sum to %d, want %d", perTotal, total)
	}
}

// TestHotPathAllocs pins the zero-allocation guarantee of every update the
// simulator issues per event once cells are resolved.
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, nil)
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	st := RunStats{ExecCycles: 123, L1Hits: 456}

	for name, f := range map[string]func(){
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(9) },
		"Histogram.Observe": func() { h.Observe(77) },
		"Recorder.PhaseDone": func() {
			rec.PhaseDone("label", PhaseRun, 5*time.Millisecond)
		},
		"Recorder.RunDone":    func() { rec.RunDone(st) },
		"Recorder.SweepEvent": func() { rec.SweepEvent(EventRetry) },
		"Recorder.Span": func() {
			rec.Span(Span{Run: "r", Cat: "kernel", Name: "k"})
		},
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

func TestTracerFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Span(Span{Run: "mg.W", Cat: "kernel", Name: "resid", Node: 2, Rank: 9, Start: 100, End: 350})
	tr.Span(Span{Run: "mg.W", Cat: "rank", Name: "main", Node: 0, Rank: 0, Start: 0, End: 1000})
	if got := tr.Spans(); got != 2 {
		t.Errorf("Spans() = %d, want 2", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	want := `{"name":"resid","cat":"kernel","ph":"X","ts":100,"dur":250,"pid":2,"tid":9,"args":{"run":"mg.W"}}` + "\n" +
		`{"name":"main","cat":"rank","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"run":"mg.W"}}` + "\n"
	if buf.String() != want {
		t.Errorf("trace bytes:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestSortedBytes(t *testing.T) {
	a := []byte("b\na\nc\n")
	b := []byte("c\nb\na\n")
	if !bytes.Equal(SortedBytes(a), SortedBytes(b)) {
		t.Error("sorted forms of permuted traces differ")
	}
	if got := string(SortedBytes(a)); got != "a\nb\nc\n" {
		t.Errorf("SortedBytes = %q, want %q", got, "a\nb\nc\n")
	}
}

func TestRecorderMetrics(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, nil)

	rec.PhaseDone("x", PhaseCompile, 3*time.Microsecond)
	rec.PhaseDone("x", PhaseCompile, 2*time.Microsecond)
	rec.RunDone(RunStats{ExecCycles: 10, RouteInterp: 4, L1Hits: 7, DDRWriteLines: 2})
	rec.RunDone(RunStats{ExecCycles: 5, RouteClosedForm: 1, EpochMemoHits: 4, EpochMemoFlattens: 1, EpochMemoMaterializations: 1})
	rec.RunDone(RunStats{Label: "twin", Served: true})
	rec.SweepEvent(EventRetry)
	rec.SweepEvent(SweepEvent("custom")) // unknown kinds fall back to lookup
	rec.Span(Span{Run: "r"})

	snap := reg.Snapshot()
	checks := map[string]uint64{
		MetricRuns:                        3,
		MetricRunsServed:                  1,
		MetricExecCycles:                  15,
		MetricSpans:                       1,
		MetricPhaseNSPrefix + "compile":   5000,
		MetricRoutePrefix + "interp":      4,
		MetricRoutePrefix + "closed_form": 1,
		"cache.l1.hits":                   7,
		"ddr.write_lines":                 2,
		MetricSweepPrefix + "retry":       1,
		MetricSweepPrefix + "custom":      1,

		MetricEpochMemoPrefix + "hits":             4,
		MetricEpochMemoPrefix + "flattens":         1,
		MetricEpochMemoPrefix + "materializations": 1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms[MetricPhaseHistPrefix+"compile"]; h.Count != 2 || h.Sum != 5000 {
		t.Errorf("compile histogram = %+v, want count 2 sum 5000", h)
	}
	// The table is the only spelling of a per-run counter: every numeric
	// RunStats field feeds exactly one of its rows, and the one flag
	// (Served) feeds a row counting 1 per set flag.
	var st RunStats
	v := reflect.ValueOf(&st).Elem()
	want := map[uint64]bool{}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i) + 1000)
			want[uint64(i)+1000] = true
		case reflect.Bool:
			f.SetBool(true)
			want[1] = true
		}
	}
	for _, c := range runCounters {
		if got := c.get(st); !want[got] {
			t.Errorf("%s reads %d: no RunStats field, or one another row reads too", c.name, got)
		} else {
			delete(want, got)
		}
	}
	if len(want) != 0 {
		t.Errorf("%d RunStats fields feed no counter: %v", len(want), want)
	}
	line := perfSummary(snap.Counters)
	if !strings.Contains(line, "epoch memo 4 hits, 0 misses (0 first sight), 0 stores, 0 corrupt, 1 flattens, 1 materializations") {
		t.Errorf("CLI perf summary %q does not carry the memo's whole-machine passes", line)
	}
	if !strings.HasPrefix(line, "perf: 3 runs (1 served); ") {
		t.Errorf("CLI perf summary %q does not count the served run beside the runs", line)
	}
}

func TestServeMetricsHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.runs").Add(3)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics returned unparseable JSON: %v\n%s", err, body)
	}
	if snap.Counters["sim.runs"] != 3 {
		t.Errorf("/metrics sim.runs = %d, want 3", snap.Counters["sim.runs"])
	}
}
