package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), items, func(_ context.Context, idx, v int) (int, error) {
		return v * v, nil
	}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), nil, func(_ context.Context, _ int, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	}, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(nil) = %v, %v", out, err)
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	items := make([]int, 24)
	_, err := Map(context.Background(), items, func(_ context.Context, _ int, _ int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return 0, nil
	}, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

// TestMapContextCancellation pins what a cancelled caller context does:
// the runs in flight finish and keep their results, the ones not yet
// started are skipped (OnSkip fires once each), and the SweepError lists
// them with the context's error as its Cause.
func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var skippedMu sync.Mutex
	var skipped []int
	items := make([]int, 32)
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = Map(ctx, items, func(ctx context.Context, _ int, _ int) (int, error) {
			started.Add(1)
			<-release
			return 1, nil
		}, Options{Workers: 2, OnSkip: func(i int) {
			skippedMu.Lock()
			skipped = append(skipped, i)
			skippedMu.Unlock()
		}})
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done

	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if !errors.Is(err, context.Canceled) || se.Cause == nil {
		t.Errorf("err = %v, want it to carry context.Canceled as its Cause", err)
	}
	n := started.Load()
	if n >= int64(len(items)) {
		t.Fatalf("started %d tasks despite cancellation", n)
	}
	if len(se.Failed) != 0 || len(se.Skipped) != len(items)-int(n) || len(skipped) != len(se.Skipped) {
		t.Errorf("%d started, Failed = %v, Skipped = %v, OnSkip fired %d times; want every unstarted item skipped once",
			n, se.Failed, se.Skipped, len(skipped))
	}
	// Claims are sequential, so the started items are the first n.
	for i, v := range out {
		want := 0
		if i < int(n) {
			want = 1
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestMapHooksAndProgress(t *testing.T) {
	var p Progress
	opts := p.Hooks()
	opts.Workers = 4
	items := make([]int, 10)
	_, err := Map(context.Background(), items, func(_ context.Context, _ int, _ int) (int, error) {
		p.AddSimCycles(1000)
		time.Sleep(time.Millisecond)
		return 0, nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Started != len(items) || s.Finished != len(items) || s.Failed != 0 {
		t.Errorf("snapshot = %+v, want %d started/finished", s, len(items))
	}
	if s.SimCycles != 10*1000 {
		t.Errorf("sim cycles = %d, want 10000", s.SimCycles)
	}
	if s.Wall <= 0 || s.Elapsed <= 0 {
		t.Errorf("timings missing: %+v", s)
	}
	if s.CyclesPerSec() <= 0 {
		t.Errorf("throughput %f, want > 0", s.CyclesPerSec())
	}
	if !strings.Contains(s.String(), "10/10 runs done") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestProgressFailureCount(t *testing.T) {
	var p Progress
	opts := p.Hooks()
	items := []int{0, 1, 2}
	_, err := Map(context.Background(), items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 0 {
			return 0, errors.New("nope")
		}
		return 0, nil
	}, opts)
	if err == nil {
		t.Fatal("expected error")
	}
	if s := p.Snapshot(); s.Failed == 0 {
		t.Errorf("failed = 0, want ≥ 1 (snapshot %+v)", s)
	}
}

func TestSnapshotZeroValues(t *testing.T) {
	var s Snapshot
	if s.CyclesPerSec() != 0 || s.Parallelism() != 0 {
		t.Error("zero snapshot must report zero rates")
	}
}
