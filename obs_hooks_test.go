package bgp

// White-box guard for the nil-observer contract promised on
// RunConfig.Observer: when no observer is attached, the observability
// hooks bgp.Run executes must cost nothing — no allocation, no stats
// collection — so the default pipeline is untouched. The wall-clock
// benchmark counterpart lives in bench_test.go
// (BenchmarkFig06InstructionProfile vs ...Observed).

import (
	"testing"
	"time"

	"bgpsim/internal/obs"
)

func TestNilObserverHooksDoNotAllocate(t *testing.T) {
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		observePhase(nil, "label", obs.PhaseRun, start)
	}); allocs != 0 {
		t.Errorf("observePhase(nil, ...) allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sweepEvent(nil, obs.EventPanic)
	}); allocs != 0 {
		t.Errorf("sweepEvent(nil, ...) allocates %.1f times per call, want 0", allocs)
	}
}
