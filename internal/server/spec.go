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
	"reflect"
	"strings"

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

// RunSpec is the wire form of one simulation point. Each field that
// bgp.Check can refuse has the Go name of its RunConfig twin, so a refusal
// renders as the path of the field the client sent.
type RunSpec struct {
	// Benchmark is the NAS benchmark name ("mg", "ft", ...). Mutually
	// exclusive with Spec.
	Benchmark string `json:"benchmark,omitempty"`
	// Spec is a YAML workload spec by value (the text of a specs/*.yaml
	// file). It is decoded strictly at submission, and the decoded
	// spec's canonical fingerprint flows into the run's RunKey and the
	// job id, so distinct workloads can never share a cache entry.
	// Mutually exclusive with Benchmark.
	Spec string `json:"workload,omitempty"`
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
// points. Each run gets one attempt (a run is a pure function of its
// configuration, so a second attempt would fail the same way); the strict
// decoder refuses the retry and deadline fields older daemons accepted
// ("retries", "run_timeout_ms") as unknown.
type JobSpec struct {
	// Tenant attributes the job for concurrency accounting; empty means
	// "anonymous". Results are shared across tenants (they are pure
	// functions of the run configuration) — only admission is per-tenant.
	Tenant string `json:"tenant,omitempty"`
	// Runs are the simulation points; a single run is a list of one.
	Runs []RunSpec `json:"runs"`
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

// Compile lowers one run spec to a RunConfig. It parses the wire and applies
// the service's own caps; what the simulator refuses is bgp.Check's call.
// Every error leads with the wire field it rejects: ranks: …, l3_bytes: ….
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
	if cfg.Class, err = bgp.ParseClass(rs.Class); err != nil {
		return cfg, fmt.Errorf("class: %v", err)
	}
	if cfg.Mode, err = bgp.ParseMode(rs.Mode); err != nil {
		return cfg, fmt.Errorf("mode: %v", err)
	}
	if cfg.Opts, err = bgp.ParseOptions(rs.Opts); err != nil {
		return cfg, fmt.Errorf("opts: %v", err)
	}
	if rs.Spec != "" {
		if len(rs.Spec) > MaxWorkloadBytes {
			return cfg, fmt.Errorf("workload: spec is %d bytes, limit is %d", len(rs.Spec), MaxWorkloadBytes)
		}
		if cfg.Spec, err = bgp.ParseWorkloadSpec([]byte(rs.Spec)); err != nil {
			return cfg, fmt.Errorf("workload: %w", err)
		}
	}
	if rs.Ranks > MaxRanks {
		return cfg, fmt.Errorf("ranks: %d exceeds the %d limit", rs.Ranks, MaxRanks)
	}
	if rs.Nodes > MaxRanks {
		return cfg, fmt.Errorf("nodes: %d exceeds the %d limit", rs.Nodes, MaxRanks)
	}
	var ce *bgp.ConfigError
	if errors.As(bgp.Check(cfg), &ce) {
		// The refused RunConfig field has a RunSpec twin of the same name.
		f, _ := reflect.TypeOf(rs).FieldByName(ce.Field)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return cfg, fmt.Errorf("%s: %s", name, ce.Reason)
	}
	return cfg, nil
}

// DecodeJobSpec reads and validates one job submission. The decode is
// strict — unknown fields, trailing garbage and malformed JSON are all
// SpecErrors, never panics (FuzzDecodeJobSpec pins this) — and the
// returned configurations are fully lowered and pass bgp.Check, so a spec
// that decodes is a spec the simulator will accept.
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
	cfgs := make([]bgp.RunConfig, len(spec.Runs))
	for i, rs := range spec.Runs {
		cfg, err := rs.Compile()
		if err != nil {
			// Compile's errors lead with the field they reject, so the
			// run's index in front makes the path: runs[1].l3_bytes: …
			return nil, nil, specErrf("runs[%d].%v", i, err)
		}
		cfgs[i] = cfg
	}
	return &spec, cfgs, nil
}

// JobID is the content address of a submission: a hash of the tenant and
// the lowered run configurations (via their RunKeys, so exactly the
// identity the result cache uses). Identical submissions from one tenant
// map onto one job — POST is idempotent — while the same runs under another
// tenant form a distinct job whose runs still hit the shared result cache.
func JobID(spec *JobSpec, cfgs []bgp.RunConfig) string {
	h := sha256.New()
	// The retries and timeout lines are the zero values of the retry and
	// deadline fields jobs once carried. Hashing them literally keeps every
	// journaled job without those fields replaying under its old id.
	fmt.Fprintf(h, "tenant=%s\nretries=0\ntimeout=0\n", spec.Tenant)
	for _, cfg := range cfgs {
		fmt.Fprintf(h, "%s\n", bgp.RunKey(0, cfg))
	}
	return "job-" + hex.EncodeToString(h.Sum(nil))[:16]
}
