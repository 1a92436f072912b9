package bgp_test

// The identity/execution split of RunConfig, pinned field by field against
// the RunKey.

import (
	"reflect"
	"testing"

	bgp "bgpsim"
	"bgpsim/internal/obs"
)

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
	"DumpDir": true, "Observer": true, "ProgCache": true,
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
				"simulated (then also render it in fingerprint and bump entryVersion), "+
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
