// Package server is the simulation-as-a-service layer of the suite: a
// long-running HTTP daemon (cmd/bgpd) that accepts simulation and sweep
// jobs, executes them on the existing sweep machinery, and deduplicates
// identical work through a content-addressed result cache.
//
// The cache has two tiers, both keyed by the RunKey fingerprint of the run
// configuration. The durable tier is the CRC-stamped checkpoint store from
// the batch sweeps: a submitted run whose fingerprint already has a valid
// dump set on disk is restored instead of simulated, which also makes the
// daemon restartable — every run directory carries its own commit record
// (ENTRY.json, entry version 3), so a fresh instance finds previously
// completed work by key with nothing to rescan or load. The in-flight tier is a
// flight table, the build-once primitive of the shared store (internal/cas):
// concurrent submissions of the same fingerprint coalesce onto one running
// simulation, and every waiter receives the one result. Dumps are
// deterministic functions of the configuration (the determinism harnesses
// in the root package pin this), so cached results are byte-identical to a
// fresh simulation and safely shareable across tenants.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	bgp "bgpsim"
)

// Spec limits. MaxRunsPerJob bounds the fan-out of one sweep submission;
// MaxRanks bounds one simulation's size (the paper's largest configuration
// is 128 ranks; 1024 leaves headroom without letting one request book an
// absurd partition).
const (
	MaxRunsPerJob = 256
	MaxRanks      = 1024
	// MaxWorkloadBytes bounds one run's inline YAML workload spec.
	MaxWorkloadBytes = 256 << 10
)

// RunSpec is the wire form of one simulation point.
type RunSpec struct {
	// Benchmark is the NAS benchmark name ("mg", "ft", ...). Mutually
	// exclusive with Workload.
	Benchmark string `json:"benchmark,omitempty"`
	// Workload is a YAML workload spec by value (the text of a
	// specs/*.yaml file). It is decoded strictly at submission, and the
	// decoded spec's canonical fingerprint flows into the run's RunKey
	// and the job id, so distinct workloads can never share a cache
	// entry. Mutually exclusive with Benchmark.
	Workload string `json:"workload,omitempty"`
	// Class is the problem-class letter ("S", "W", "A", "B", "C").
	Class string `json:"class"`
	// Ranks is the requested MPI process count.
	Ranks int `json:"ranks"`
	// Mode is the node operating mode ("smp1", "smp4", "dual", "vnm").
	Mode string `json:"mode"`
	// Opts is the compiler-flag spelling, e.g. "-O5 -qarch=440d".
	Opts string `json:"opts,omitempty"`
	// Nodes overrides the partition size (0 books what the ranks need).
	Nodes int `json:"nodes,omitempty"`
	// L3Bytes overrides the shared L3 capacity (negative disables it).
	L3Bytes int `json:"l3_bytes,omitempty"`
	// L2PrefetchDepth overrides the L2 stream-prefetch depth (negative
	// disables prefetching).
	L2PrefetchDepth int `json:"l2_prefetch_depth,omitempty"`
	// L3PrefetchDepth enables the memory-side L3 prefetch engine.
	L3PrefetchDepth int `json:"l3_prefetch_depth,omitempty"`
}

// JobSpec is the wire form of one job: a batch of independent simulation
// points plus the resilience knobs of the underlying sweep.
type JobSpec struct {
	// Tenant attributes the job for concurrency accounting; empty means
	// "anonymous". Results are shared across tenants (they are pure
	// functions of the run configuration) — only admission is per-tenant.
	Tenant string `json:"tenant,omitempty"`
	// Runs are the simulation points; a single run is a list of one.
	Runs []RunSpec `json:"runs"`
	// Retries is the per-run retry budget for transient failures.
	Retries int `json:"retries,omitempty"`
	// RunTimeoutMS bounds each run attempt in milliseconds (0 = none).
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
}

// SpecError is a job-spec validation failure; handlers render it as a 400
// (or, when the wrapped cause is the body-size limit, a 413).
type SpecError struct {
	Reason string
	// Err is the underlying cause, when one exists (an I/O or JSON decode
	// error); validation failures leave it nil.
	Err error
}

// Error returns the validation failure.
func (e *SpecError) Error() string { return "spec: " + e.Reason }

// Unwrap exposes the cause, so handlers can detect *http.MaxBytesError
// behind a decode failure.
func (e *SpecError) Unwrap() error { return e.Err }

// specErrf builds a SpecError.
func specErrf(format string, args ...any) error {
	return &SpecError{Reason: fmt.Sprintf(format, args...)}
}

// Compile validates one run spec and lowers it to a RunConfig.
func (rs RunSpec) Compile() (bgp.RunConfig, error) {
	cfg := bgp.RunConfig{
		Benchmark:       rs.Benchmark,
		Ranks:           rs.Ranks,
		Nodes:           rs.Nodes,
		L3Bytes:         rs.L3Bytes,
		L2PrefetchDepth: rs.L2PrefetchDepth,
		L3PrefetchDepth: rs.L3PrefetchDepth,
	}
	var err error
	if rs.Workload != "" {
		if len(rs.Workload) > MaxWorkloadBytes {
			return cfg, specErrf("workload spec is %d bytes, limit is %d", len(rs.Workload), MaxWorkloadBytes)
		}
		if cfg.Spec, err = bgp.ParseWorkloadSpec([]byte(rs.Workload)); err != nil {
			return cfg, &SpecError{Reason: fmt.Sprintf("workload: %v", err), Err: err}
		}
	}
	// Which of the two the run names, whether it exists and whether both
	// were given is the resolver's call, the same one Run makes.
	if _, _, err = bgp.ResolveWorkload(cfg); err != nil {
		return cfg, specErrf("%v", err)
	}
	if cfg.Class, err = bgp.ParseClass(rs.Class); err != nil {
		return cfg, specErrf("class: %v", err)
	}
	if rs.Ranks <= 0 {
		return cfg, specErrf("non-positive rank count %d", rs.Ranks)
	}
	if rs.Ranks > MaxRanks {
		return cfg, specErrf("rank count %d exceeds the %d limit", rs.Ranks, MaxRanks)
	}
	if cfg.Mode, err = bgp.ParseMode(rs.Mode); err != nil {
		return cfg, specErrf("mode: %v", err)
	}
	if cfg.Opts, err = bgp.ParseOptions(rs.Opts); err != nil {
		return cfg, specErrf("opts: %v", err)
	}
	if rs.Nodes < 0 {
		return cfg, specErrf("negative node count %d", rs.Nodes)
	}
	if rs.Nodes > MaxRanks {
		return cfg, specErrf("node count %d exceeds the %d limit", rs.Nodes, MaxRanks)
	}
	switch {
	case rs.L3Bytes > 0 && rs.L3Bytes < bgp.MinL3Bytes:
		return cfg, specErrf("l3_bytes: %d is below the %d-byte minimum (a negative value boots without an L3)", rs.L3Bytes, bgp.MinL3Bytes)
	case rs.L3Bytes > bgp.MaxL3Bytes:
		return cfg, specErrf("l3_bytes: %d is above the %d-byte maximum", rs.L3Bytes, bgp.MaxL3Bytes)
	case rs.L2PrefetchDepth > bgp.MaxPrefetchDepth:
		return cfg, specErrf("l2_prefetch_depth: %d is above the maximum of %d", rs.L2PrefetchDepth, bgp.MaxPrefetchDepth)
	case rs.L3PrefetchDepth > bgp.MaxPrefetchDepth:
		return cfg, specErrf("l3_prefetch_depth: %d is above the maximum of %d", rs.L3PrefetchDepth, bgp.MaxPrefetchDepth)
	}
	// Run counts the nodes from the ranks the workload really uses, never
	// more than those requested, so this bound is never looser than Run's.
	nodes := rs.Nodes
	if nodes == 0 {
		rpn := cfg.Mode.RanksPerNode()
		nodes = (rs.Ranks + rpn - 1) / rpn
	}
	if l3 := bgp.PartitionL3Bytes(cfg, nodes); l3 > bgp.MaxPartitionL3Bytes {
		return cfg, specErrf("l3_bytes: the partition's L3, %d bytes over %d nodes, is above the %d-byte maximum", l3, nodes, bgp.MaxPartitionL3Bytes)
	}
	return cfg, nil
}

// DecodeJobSpec reads and validates one job submission. The decode is
// strict — unknown fields, trailing garbage and malformed JSON are all
// SpecErrors, never panics (FuzzDecodeJobSpec pins this) — and the
// returned configurations are fully lowered, so a spec that decodes is a
// spec the simulator will accept.
func DecodeJobSpec(r io.Reader) (*JobSpec, []bgp.RunConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, &SpecError{Reason: fmt.Sprintf("decoding job: %v", err), Err: err}
	}
	if dec.More() {
		return nil, nil, specErrf("trailing data after job object")
	}
	if spec.Tenant == "" {
		spec.Tenant = "anonymous"
	}
	if len(spec.Tenant) > 128 {
		return nil, nil, specErrf("tenant name exceeds 128 bytes")
	}
	if len(spec.Runs) == 0 {
		return nil, nil, specErrf("job has no runs")
	}
	if len(spec.Runs) > MaxRunsPerJob {
		return nil, nil, specErrf("job has %d runs, limit is %d", len(spec.Runs), MaxRunsPerJob)
	}
	if spec.Retries < 0 {
		return nil, nil, specErrf("negative retry budget %d", spec.Retries)
	}
	if spec.RunTimeoutMS < 0 {
		return nil, nil, specErrf("negative run timeout %dms", spec.RunTimeoutMS)
	}
	cfgs := make([]bgp.RunConfig, len(spec.Runs))
	for i, rs := range spec.Runs {
		cfg, err := rs.Compile()
		if err != nil {
			// Compile's reasons lead with the field they reject, so the
			// run's index in front makes the path: runs[1].l3_bytes: …
			reason := err.Error()
			var se *SpecError
			if errors.As(err, &se) {
				reason = se.Reason
			}
			return nil, nil, specErrf("runs[%d].%s", i, reason)
		}
		cfgs[i] = cfg
	}
	return &spec, cfgs, nil
}

// RunTimeout returns the spec's per-attempt deadline as a duration.
func (s *JobSpec) RunTimeout() time.Duration {
	return time.Duration(s.RunTimeoutMS) * time.Millisecond
}

// JobID is the content address of a submission: a hash of the tenant, the
// lowered run configurations (via their RunKeys, so exactly the identity
// the result cache uses) and the resilience knobs. Identical submissions
// from one tenant map onto one job — POST is idempotent — while the same
// runs under another tenant form a distinct job whose runs still hit the
// shared result cache.
func JobID(spec *JobSpec, cfgs []bgp.RunConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "tenant=%s\nretries=%d\ntimeout=%d\n", spec.Tenant, spec.Retries, spec.RunTimeoutMS)
	for _, cfg := range cfgs {
		fmt.Fprintf(h, "%s\n", bgp.RunKey(0, cfg))
	}
	return "job-" + hex.EncodeToString(h.Sum(nil))[:16]
}
