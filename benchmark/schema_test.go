package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	bgp "bgpsim"
)

// The traced pass measures the same program as the untraced one only if
// bgp.Run sees an observer that declines simulated-clock spans.
var (
	_ bgp.Observer                = (*layerObserver)(nil)
	_ interface{ Tracing() bool } = (*layerObserver)(nil)
)

func TestObserverDeclinesSpans(t *testing.T) {
	if newLayerObserver().Tracing() {
		t.Error("layerObserver.Tracing() = true: bgp.Run would install span hooks and disable the epoch memo")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s has better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// benchmarkJSON mirrors BENCHMARK.json, which must hold exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s/%s/%s, the benchmark %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is not in (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json has no setup_s metric in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s/%s/%s, the benchmark %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// A perturbed cell must fail its table and with it the run.
func TestGateCatchesAPerturbedTable(t *testing.T) {
	golden := [][]string{{"benchmark", "traffic_ratio"}, {"mg", "2.5"}, {"ft", "3.4375"}}
	same := [][]string{{"benchmark", "traffic_ratio"}, {"mg", "2.5"}, {"ft", "3.4375"}}
	if diffs := diffTable("fig12", golden, same); len(diffs) != 0 {
		t.Errorf("identical tables differ: %v", diffs)
	}
	for name, got := range map[string][][]string{
		"cell":    {{"benchmark", "traffic_ratio"}, {"mg", "2.5"}, {"ft", "3.4376"}},
		"row":     {{"benchmark", "traffic_ratio"}, {"mg", "2.5"}},
		"column":  {{"benchmark", "traffic_ratio"}, {"mg"}, {"ft", "3.4375"}},
		"missing": nil,
	} {
		if diffs := diffTable("fig12", golden, got); len(diffs) == 0 {
			t.Errorf("perturbed %s went unnoticed", name)
		}
	}

	perturbed := [][]string{{"benchmark", "traffic_ratio"}, {"mg", "2.5"}, {"ft", "3.4376"}}
	w := &measurement{
		prod: &products{goldens: map[string][][]string{"fig12": golden}},
		info: &runInfo{}, res: &result{},
	}
	w.checkSimReps([]simRep{
		{pass: passReport{Digest: "a", Tables: map[string][][]string{"fig12": same}}},
		{pass: passReport{Digest: "b", Tables: map[string][][]string{"fig12": perturbed}}},
	})
	if w.res.Attempted != 2 || w.res.Failed != 1 || len(w.info.Problems) == 0 {
		t.Errorf("gate counted %d attempted, %d failed, problems %v; want 2, 1 and a report",
			w.res.Attempted, w.res.Failed, w.info.Problems)
	}

	// A point whose dumps change between repetitions fails too.
	w = &measurement{prod: &products{}, info: &runInfo{}, res: &result{}}
	w.checkSimReps([]simRep{
		{pass: passReport{Points: []pointCheck{{Label: "mg", Digest: "x"}, {Label: "ft", Digest: "y"}}}},
		{pass: passReport{Points: []pointCheck{{Label: "mg", Digest: "x"}, {Label: "ft", Digest: "z"}}}},
	})
	if w.res.Attempted != 4 || w.res.Failed != 1 {
		t.Errorf("gate counted %d attempted, %d failed; want 4 and 1", w.res.Attempted, w.res.Failed)
	}
}
