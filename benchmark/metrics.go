package main

// The benchmark's metric tables. BENCHMARK.json at the repository root
// lists the same names, units and directions (TestBenchmarkJSONMatches
// pins the two together); README.md holds the glossary.

import "fmt"

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, measured with the instrumentation off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, measured in the traced pass.
// A layer a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"bgp.compile_ms", "ms", "lower"},
	{"bgp.run_ms", "ms", "lower"},
	{"bgp.postproc_ms", "ms", "lower"},
	{"bgp.other_ms", "ms", "lower"},
	{"bgp.run_ns_per_sim_kcycle", "ns", "lower"},
	{"bgp.persist_ms_at_10", "ms", "lower"},
	{"bgp.persist_ms_at_1000", "ms", "lower"},
	{"bgp.restore_us", "us", "lower"},
	{"bgp.runkey_us", "us", "lower"},
	{"experiments.fig06_ms", "ms", "lower"},
	{"experiments.fig07_10_ms", "ms", "lower"},
	{"experiments.fig11_ms", "ms", "lower"},
	{"experiments.fig12_14_ms", "ms", "lower"},
	{"experiments.hpl_ms", "ms", "lower"},
	{"nas.mg_run_ms", "ms", "lower"},
	{"nas.ft_run_ms", "ms", "lower"},
	{"nas.ep_run_ms", "ms", "lower"},
	{"nas.cg_run_ms", "ms", "lower"},
	{"nas.is_run_ms", "ms", "lower"},
	{"nas.lu_run_ms", "ms", "lower"},
	{"nas.sp_run_ms", "ms", "lower"},
	{"nas.bt_run_ms", "ms", "lower"},
	{"nas.build_nocache_us", "us", "lower"},
	{"workload.hpl_run_ms", "ms", "lower"},
	{"workload.halo_run_ms", "ms", "lower"},
	{"workload.decode_us", "us", "lower"},
	{"workload.build_us", "us", "lower"},
	{"progcache.hit_us", "us", "lower"},
	{"progcache.hit_ratio", "ratio", "higher"},
	{"sweep.parallelism", "ratio", "higher"},
	{"machine.new_ms_vnm4", "ms", "lower"},
	{"machine.new_ms_smp16", "ms", "lower"},
	{"core.route_closed_form", "count", "lower"},
	{"core.route_coalesced", "count", "lower"},
	{"core.route_tracked", "count", "lower"},
	{"core.route_interp", "count", "lower"},
	{"core.batched_over_interp_ratio", "ratio", "higher"},
	{"cache.access_hit_ns", "ns", "lower"},
	{"cache.access_miss_ns", "ns", "lower"},
	{"cache.l1_accesses", "count", "lower"},
	{"cache.l3_accesses", "count", "lower"},
	{"memory.ddr_lines", "count", "lower"},
	{"mpi.ff_dispatches", "count", "higher"},
	{"mpi.ff_cycles", "count", "higher"},
	{"mpi.fastforward_gain_ratio", "ratio", "higher"},
	{"epochmemo.hit_ratio", "ratio", "higher"},
	{"epochmemo.stores", "count", "lower"},
	{"epochmemo.record_tax_ratio", "ratio", "lower"},
	{"epochmemo.get_us", "us", "lower"},
	{"epochmemo.put_us", "us", "lower"},
	{"statehash.mb_per_s", "MB/s", "higher"},
	{"postproc.analyze_us", "us", "lower"},
	{"bgpctr.encode_us", "us", "lower"},
	{"bgpctr.read_us", "us", "lower"},
	{"journal.append_p50_us", "us", "lower"},
	{"journal.append_p90_us", "us", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.http_submit_us", "us", "lower"},
	{"server.http_status_us", "us", "lower"},
	{"server.http_result_us", "us", "lower"},
	{"server.polls_per_job", "count", "lower"},
	{"server.journal_records_per_job", "count", "lower"},
	{"server.cache_miss", "count", "lower"},
	{"server.cache_hit_store", "count", "higher"},
	{"server.cache_hit_inflight", "count", "higher"},
	{"server.jobs_deduped", "count", "higher"},
	{"server.coalesce_ratio", "ratio", "higher"},
	{"server.jobs_per_s", "jobs/s", "higher"},
	{"server.job_fresh_p50_ms", "ms", "lower"},
	{"server.job_fresh_p90_ms", "ms", "lower"},
	{"server.job_fresh_p99_ms", "ms", "lower"},
	{"server.job_store_p50_ms", "ms", "lower"},
	{"server.job_store_p90_ms", "ms", "lower"},
	{"server.job_store_p99_ms", "ms", "lower"},
	{"server.job_coalesced_p50_ms", "ms", "lower"},
	{"server.job_dedupe_p50_ms", "ms", "lower"},
	{"server.accept_p50_ms", "ms", "lower"},
	{"server.accept_p90_ms", "ms", "lower"},
	{"server.accept_p99_ms", "ms", "lower"},
	{"server.sim_share_of_fresh", "ratio", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
}

// metricValue is one reported value on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals against defs: every defined metric appears, and a
// metric nothing measured reads 0. A value under a name no table defines is
// a bug in the benchmark, reported as an error.
func fill(out map[string]metricValue, defs []metricDef, vals map[string]float64) error {
	defined := make(map[string]bool, len(defs))
	for _, d := range defs {
		defined[d.Name] = true
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if !defined[name] {
			return fmt.Errorf("value measured for undefined metric %q", name)
		}
	}
	return nil
}
