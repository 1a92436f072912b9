package obs

import "fmt"

// SetupCLI wires the command-line observability shared by the bgp tools:
// a tracer when tracePath is non-empty, and an HTTP metrics endpoint
// (serving /metrics and /debug/vars, with the registry also published to
// expvar) when metricsAddr is non-empty. It returns the observer to attach
// (nil when neither was requested — the zero-cost path) and a cleanup
// function, safe to call unconditionally, that stops the server, flushes
// the trace and reports the span count and a one-line perf summary (what
// the execution accelerators did over the command's runs) through logf.
func SetupCLI(tracePath, metricsAddr string, logf func(format string, args ...any)) (Observer, func(), error) {
	if tracePath == "" && metricsAddr == "" {
		return nil, func() {}, nil
	}
	reg := NewRegistry()
	var tr *Tracer
	if tracePath != "" {
		var err error
		tr, err = CreateTrace(tracePath)
		if err != nil {
			return nil, func() {}, err
		}
	}
	var srv *Server
	cleanup := func() {
		if c := reg.Snapshot().Counters; c[MetricRuns] > 0 {
			logf("%s", perfSummary(c))
		}
		if srv != nil {
			srv.Close()
		}
		if tr != nil {
			spans := tr.Spans()
			if err := tr.Close(); err != nil {
				logf("trace: %v", err)
			} else {
				logf("trace: %d spans written to %s", spans, tracePath)
			}
		}
	}
	if metricsAddr != "" {
		Publish("bgpsim", reg)
		var err error
		srv, err = Serve(metricsAddr, reg)
		if err != nil {
			cleanup()
			return nil, func() {}, err
		}
		logf("metrics: http://%s/metrics", srv.Addr())
	}
	return NewRecorder(reg, tr), cleanup, nil
}

// perfSummary renders the accelerator counters of a registry snapshot. The
// epoch memo's misses are split so a cold number explains itself — a first
// sight belongs to a run whose identity was new and did no memo work, the
// other misses recorded their epochs or ended a replay — and its
// whole-machine passes are counted, since they are the only memo costs not
// proportional to a diff.
func perfSummary(c map[string]uint64) string {
	return fmt.Sprintf("perf: %d runs (%d served); fast-forward %d dispatches (%d cycles); "+
		"epoch memo %d hits, %d misses (%d first sight), %d stores, %d corrupt, %d flattens, %d materializations; "+
		"progcache %d hits, %d misses",
		c[MetricRuns], c[MetricRunsServed], c[MetricFFPrefix+"dispatches"], c[MetricFFPrefix+"cycles"],
		c[MetricEpochMemoPrefix+"hits"], c[MetricEpochMemoPrefix+"misses"], c[MetricEpochMemoPrefix+"first_sight"],
		c[MetricEpochMemoPrefix+"stores"], c[MetricEpochMemoPrefix+"corrupt"],
		c[MetricEpochMemoPrefix+"flattens"], c[MetricEpochMemoPrefix+"materializations"],
		c[MetricProgCachePrefix+"hit"], c[MetricProgCachePrefix+"miss"])
}
