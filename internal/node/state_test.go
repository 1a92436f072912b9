package node

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"bgpsim/internal/cache"
	"bgpsim/internal/collective"
	"bgpsim/internal/core"
	"bgpsim/internal/memory"
	"bgpsim/internal/statehash"
	"bgpsim/internal/torus"
)

// Reasons a field may stay out of the state window.
const (
	fixedAtNew = "fixed at New"
	scratch    = "scratch, dead between accesses"
)

// unwalked lists, for every type whose fields make up a node's state window,
// the fields the window leaves out and why. Every other field must be
// walked. A field added to one of these types fails
// TestStateWalkClassifiesEveryField until it is walked or listed here.
var unwalked = map[reflect.Type]map[string]string{
	reflect.TypeFor[Node](): {
		"id": fixedAtNew, "params": fixedAtNew, "coreLen": fixedAtNew, "l3pfWant": scratch,
		"UPC": "its registers change only at counter-library calls, outside memoized epochs; " +
			"its counts are deltas of the totals walked here",
		"active":  "derived from the ranks' statuses, which the MPI layer re-establishes at every epoch boundary",
		"nactive": "derived from the ranks' statuses, which the MPI layer re-establishes at every epoch boundary",
	},
	reflect.TypeFor[core.Core](): {
		"id": fixedAtNew, "params": fixedAtNew, "lower": fixedAtNew, "want": scratch,
	},
	reflect.TypeFor[cache.Cache](): {
		"name": fixedAtNew, "lineBits": fixedAtNew, "setBits": fixedAtNew, "ways": fixedAtNew,
		"writeback": fixedAtNew, "policy": fixedAtNew, "setWords": fixedAtNew, "sigw": fixedAtNew,
		"tagOff": fixedAtNew,
		"hint":   "the hit hint: probing a stale hint first never changes which way a lookup hits, or whether it hits",
	},
	reflect.TypeFor[cache.StreamDetector](): {
		"maxDelta": fixedAtNew, "depth": fixedAtNew, "n": fixedAtNew,
		"zeroHits": "derived: rebuilt from the restored hit counts, walked as the count of engines with hits",
	},
	reflect.TypeFor[cache.Prefetcher]():  {},
	reflect.TypeFor[cache.SnoopFilter](): {},
	reflect.TypeFor[memory.Controller](): {"id": fixedAtNew, "cfg": fixedAtNew},
	reflect.TypeFor[torus.Iface]():       {},
	reflect.TypeFor[collective.Iface]():  {},
}

// TestStateWalkClassifiesEveryField walks a node's object graph by
// reflection — every core, cache bank, detector, controller and network
// interface reachable from it — and flips one bit of every scalar in every
// field not listed in unwalked (first and last element of arrays and
// slices, every field of element structs), through unsafe for the unexported
// ones. Each flip must move the node's state window; a field whose flip
// leaves it still is state the memo would lose.
func TestStateWalkClassifiesEveryField(t *testing.T) {
	p := DefaultParams()
	p.L3PrefetchDepth = 2 // so the memory-side detector exists
	n := New(0, p, nil, nil)
	window := func() []uint64 {
		w := make([]uint64, statehash.Len(n))
		statehash.Read(n, w)
		return w
	}
	// The eviction counter is the window's last word: the state goldens'
	// historicState (internal/mpi) drops it to read the windows they
	// recorded before it existed.
	n.L3Evictions = 0x5eed
	if w := window(); w[len(w)-1] != n.L3Evictions {
		t.Errorf("the state window ends in %#x, not L3Evictions", w[len(w)-1])
	}
	n.L3Evictions = 0
	base := window()
	reached := map[reflect.Type]bool{}
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				t.Errorf("%s is nil: nothing to perturb", path)
				return
			}
			visit(path, v.Elem())
		case reflect.Struct:
			skip, stateful := unwalked[v.Type()]
			reached[v.Type()] = reached[v.Type()] || stateful
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if _, ok := skip[f.Name]; ok || f.Name == "_" {
					continue
				}
				fv := reflect.NewAt(f.Type, unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
				visit(path+"."+f.Name, fv)
			}
		case reflect.Array, reflect.Slice:
			if v.Len() == 0 {
				t.Errorf("%s is empty: nothing to perturb", path)
				return
			}
			visit(path+"[0]", v.Index(0))
			if last := v.Len() - 1; last > 0 {
				visit(path+"[last]", v.Index(last))
			}
		case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			flip := func() {
				if v.CanInt() {
					v.SetInt(v.Int() ^ 1)
				} else {
					v.SetUint(v.Uint() ^ 1)
				}
			}
			flip()
			if slices.Equal(window(), base) {
				t.Errorf("%s: flipping it leaves the state window unchanged; walk it or list it in unwalked with its reason", path)
			}
			flip()
		default:
			t.Errorf("%s: a %s cannot be perturbed; walk its scalars or list it in unwalked with its reason", path, v.Kind())
		}
	}
	visit("node", reflect.ValueOf(n))

	if !slices.Equal(window(), base) {
		t.Fatal("the perturbations did not restore the node")
	}
	for typ, skip := range unwalked {
		if !reached[typ] {
			t.Errorf("%v is not reached from the node", typ)
		}
		for name := range skip {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("unwalked lists %v.%s, which does not exist", typ, name)
			}
		}
	}
}

// BenchmarkStateWindow times the memo's three passes over one default
// node: a flatten, a write-back and the clocks of a replayed epoch.
func BenchmarkStateWindow(b *testing.B) {
	n := New(0, DefaultParams(), nil, nil)
	w := make([]uint64, statehash.Len(n))
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			statehash.Read(n, w)
		}
	})
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			statehash.Write(n, w)
		}
	})
	b.Run("clocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n.WriteClocks(w)
		}
	})
}
