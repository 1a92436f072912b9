package bgp_test

// Determinism harness of the epoch-parallel scheduler. Collectives-only
// benchmarks (EP, FT, IS) may execute barrier-to-barrier epochs across
// host cores inside one simulation; the guarantee is the same one the
// cross-run pool gives: byte-identical binary counter dumps and identical
// derived metrics at every -epoch-jobs value, including the serial
// scheduler. Benchmarks with point-to-point communication must silently
// keep the serial path under any EpochJobs setting.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/obs"
)

// epochCases are collectives-only configurations whose ranks span several
// nodes (single-node jobs fall back to the serial scheduler), covering
// every operating mode including the threaded ones.
func epochCases() []bgp.RunConfig {
	return []bgp.RunConfig{
		{Benchmark: "ep", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM,
			Opts: bgp.Options{Level: bgp.O5, Arch440d: true}},
		{Benchmark: "ft", Class: bgp.ClassS, Ranks: 4, Mode: bgp.SMP1,
			Opts: bgp.Options{Level: bgp.O3, Arch440d: true}},
		{Benchmark: "ft", Class: bgp.ClassS, Ranks: 2, Mode: bgp.SMP4,
			Opts: bgp.Options{Level: bgp.O4}},
		{Benchmark: "is", Class: bgp.ClassS, Ranks: 8, Mode: bgp.Dual,
			Opts: bgp.Options{Level: bgp.O5}},
	}
}

// runWithEpochJobs executes cfg with the given EpochJobs into its own dump
// directory and returns the result plus the raw dump bytes.
func runWithEpochJobs(t *testing.T, cfg bgp.RunConfig, root string, epochJobs int) (*bgp.Result, map[string][]byte) {
	t.Helper()
	cfg.EpochJobs = epochJobs
	cfg.DumpDir = filepath.Join(root, fmt.Sprintf("epoch%d", epochJobs))
	if err := os.MkdirAll(cfg.DumpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := bgp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, readDumpBytes(t, cfg.DumpDir)
}

// TestEpochParallelDeterminism pins the tentpole guarantee: dumps and
// metrics from the epoch scheduler at widths 1, 2 and 4 are byte-identical
// to the serial scheduler's.
func TestEpochParallelDeterminism(t *testing.T) {
	for _, cfg := range epochCases() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%v", cfg.Benchmark, cfg.Mode), func(t *testing.T) {
			root := t.TempDir()
			serial, want := runWithEpochJobs(t, cfg, root, 0)
			for _, jobs := range []int{1, 2, 4} {
				res, got := runWithEpochJobs(t, cfg, root, jobs)
				if len(got) != len(want) {
					t.Fatalf("epoch-jobs=%d wrote %d dumps, serial wrote %d", jobs, len(got), len(want))
				}
				for name, blob := range want {
					if !bytes.Equal(blob, got[name]) {
						t.Errorf("epoch-jobs=%d: dump %s differs from serial run", jobs, name)
					}
				}
				if !reflect.DeepEqual(res.Metrics, serial.Metrics) {
					t.Errorf("epoch-jobs=%d metrics differ:\nserial %+v\nepoch  %+v",
						jobs, serial.Metrics, res.Metrics)
				}
			}
		})
	}
}

// TestEpochJobsPointToPointFallback pins the gate: a benchmark with
// Send/Recv communication ignores EpochJobs (rather than panicking in the
// point-to-point guard) and still matches its serial run exactly.
func TestEpochJobsPointToPointFallback(t *testing.T) {
	cfg := bgp.RunConfig{Benchmark: "cg", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM,
		Opts: bgp.Options{Level: bgp.O4, Arch440d: true}}
	root := t.TempDir()
	serial, want := runWithEpochJobs(t, cfg, root, 0)
	res, got := runWithEpochJobs(t, cfg, root, 4)
	for name, blob := range want {
		if !bytes.Equal(blob, got[name]) {
			t.Errorf("dump %s differs between serial and EpochJobs=4 fallback", name)
		}
	}
	if !reflect.DeepEqual(res.Metrics, serial.Metrics) {
		t.Errorf("fallback metrics differ:\nserial %+v\nepoch  %+v", serial.Metrics, res.Metrics)
	}
}

// identityFields are the RunConfig fields that say what is simulated: each
// one is rendered by fingerprint (checkpoint.go) and so moves the RunKey.
var identityFields = map[string]bool{
	"Benchmark": true, "Spec": true, "Class": true, "Ranks": true, "Mode": true,
	"Opts": true, "Nodes": true, "L3Bytes": true, "L2PrefetchDepth": true,
	"L3PrefetchDepth": true, "Interpreter": true, "SliceCycles": true,
	"TimelineInterval": true, "TimelineEvents": true,
}

// executionFields are the RunConfig fields that say how the host computes or
// observes the run: dumps are byte-identical at every setting, and none of
// them may reach a RunKey.
var executionFields = map[string]bool{
	"DumpDir": true, "Observer": true, "EpochJobs": true, "ProgCache": true,
	"NoProgCache": true, "NoFastForward": true, "NoEpochMemo": true,
}

// TestExecutionKnobsExcludedFromRunKey pins the identity/execution split of
// RunConfig field by field: every field is classified in exactly one of the
// two tables above, perturbing an identity field (each member of a struct
// field separately) must change the RunKey, and perturbing an execution
// field must not — a checkpoint written at any execution setting restores at
// any other. A new RunConfig field fails here until it is classified.
func TestExecutionKnobsExcludedFromRunKey(t *testing.T) {
	base := bgp.RunConfig{Benchmark: "ep", Class: bgp.ClassS, Ranks: 8, Mode: bgp.VNM}
	key := bgp.RunKey(3, base)

	// Pointer and interface fields cannot be perturbed generically.
	custom := map[string]func(*bgp.RunConfig){
		"Spec":      func(c *bgp.RunConfig) { c.Spec = mustHPLConfig().Spec },
		"Observer":  func(c *bgp.RunConfig) { c.Observer = obs.NewRecorder(obs.NewRegistry(), nil) },
		"ProgCache": func(c *bgp.RunConfig) { c.ProgCache = bgp.NewProgCache(8) },
	}
	perturb := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("no perturbation for kind %v: add one, or a custom entry", v.Kind())
		}
	}

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if identityFields[name] == executionFields[name] {
			t.Errorf("RunConfig.%s must be in exactly one table: identityFields if it changes what is "+
				"simulated (then also render it in fingerprint and bump manifestVersion), "+
				"executionFields if it only changes how the host runs or observes it", name)
			continue
		}
		var variants []bgp.RunConfig
		switch f := custom[name]; {
		case f != nil:
			cfg := base
			f(&cfg)
			variants = append(variants, cfg)
		case typ.Field(i).Type.Kind() == reflect.Struct:
			for j := 0; j < typ.Field(i).Type.NumField(); j++ {
				cfg := base
				perturb(reflect.ValueOf(&cfg).Elem().Field(i).Field(j))
				variants = append(variants, cfg)
			}
		default:
			cfg := base
			perturb(reflect.ValueOf(&cfg).Elem().Field(i))
			variants = append(variants, cfg)
		}
		for j, cfg := range variants {
			if changed := bgp.RunKey(3, cfg) != key; changed != identityFields[name] {
				t.Errorf("RunConfig.%s (variant %d): RunKey changed = %t, want %t", name, j, changed, identityFields[name])
			}
		}
	}
	for _, table := range []map[string]bool{identityFields, executionFields} {
		for name := range table {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("classified field %q is not a RunConfig field", name)
			}
		}
	}
}
