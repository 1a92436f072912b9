package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapIsolatesPanics(t *testing.T) {
	items := []int{0, 1, 2, 3}
	_, err := Map(context.Background(), items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 1 {
			panic("kaboom")
		}
		return idx, nil
	}, Options{Workers: 2})
	var pe *RunPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *RunPanicError", err)
	}
	if pe.Index != 1 || fmt.Sprint(pe.Value) != "kaboom" {
		t.Errorf("panic error = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestMapGathersFailures pins that a failure cancels nothing: every other
// run finishes, and the failures come back in index order.
func TestMapGathersFailures(t *testing.T) {
	items := make([]int, 10)
	out, err := Map(context.Background(), items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 3 || idx == 7 {
			return 0, fmt.Errorf("fail %d", idx)
		}
		return idx + 1, nil
	}, Options{Workers: 4})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if len(se.Failed) != 2 || se.Failed[0].Index != 3 || se.Failed[1].Index != 7 {
		t.Errorf("Failed = %+v, want indices 3 and 7 in order", se.Failed)
	}
	if len(se.Skipped) != 0 || se.Cause != nil {
		t.Errorf("Skipped = %v, Cause = %v, want none", se.Skipped, se.Cause)
	}
	for i, v := range out {
		want := i + 1
		if i == 3 || i == 7 {
			want = 0 // failed slots hold the zero value
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if !strings.Contains(se.Error(), "2 run(s) failed") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestMapAllSucceed(t *testing.T) {
	out, err := Map(context.Background(), []int{1, 2, 3}, func(_ context.Context, _, v int) (int, error) {
		return v * 10, nil
	}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("err = %v, want nil when every run succeeds", err)
	}
	if out[2] != 30 {
		t.Errorf("out = %v", out)
	}
}

// TestMapContinueOnErrorCancellation pins a cancellation whose in-flight
// runs stop with the context's error: those runs are Failed, not Skipped,
// every unstarted item is Skipped with OnSkip fired once each, and the
// SweepError carries the cancellation as its Cause.
func TestMapContinueOnErrorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	var skippedMu sync.Mutex
	var skipped []int
	items := make([]int, 16)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, items, func(ctx context.Context, _, _ int) (int, error) {
			started.Add(1)
			<-release
			return 0, ctx.Err()
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
	if !errors.Is(err, context.Canceled) {
		t.Error("SweepError does not unwrap to context.Canceled")
	}
	if se.Cause == nil {
		t.Error("Cause not set on cancellation")
	}
	n := int(started.Load())
	if len(se.Failed) != n {
		t.Errorf("Failed = %v, want the %d started runs", se.Failed, n)
	}
	if len(se.Skipped) == 0 {
		t.Error("no skipped indices recorded")
	}
	if len(se.Skipped) != len(skipped) {
		t.Errorf("OnSkip fired %d times, SweepError lists %d", len(skipped), len(se.Skipped))
	}
}

// TestMapOnFinishOncePerStartedRun pins the hook contract: OnFinish fires
// exactly once for every item OnStart fired for — whether the run carries on
// past the sweep's cancellation and succeeds (continueOnError=true) or stops
// with its error (false) — and never for skipped items.
func TestMapOnFinishOncePerStartedRun(t *testing.T) {
	for _, continueOnError := range []bool{false, true} {
		t.Run(fmt.Sprintf("continueOnError=%v", continueOnError), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			startCount := make(map[int]int)
			finishCount := make(map[int]int)
			skipCount := make(map[int]int)
			release := make(chan struct{})
			var started atomic.Int64
			items := make([]int, 24)
			done := make(chan struct{})
			go func() {
				defer close(done)
				Map(ctx, items, func(ctx context.Context, _, _ int) (int, error) {
					started.Add(1)
					<-release
					if continueOnError {
						return 1, nil
					}
					return 0, ctx.Err() // cancelled runs error with ctx.Err()
				}, Options{
					Workers: 3,
					OnStart: func(i int) {
						mu.Lock()
						startCount[i]++
						mu.Unlock()
					},
					OnFinish: func(i int, _ time.Duration, _ error) {
						mu.Lock()
						finishCount[i]++
						mu.Unlock()
					},
					OnSkip: func(i int) {
						mu.Lock()
						skipCount[i]++
						mu.Unlock()
					},
				})
			}()
			for started.Load() < 3 {
				time.Sleep(time.Millisecond)
			}
			cancel()
			close(release)
			<-done

			mu.Lock()
			defer mu.Unlock()
			if len(startCount) == len(items) {
				t.Fatal("every item started; cancellation came too late to test skips")
			}
			for i := range items {
				s, f, k := startCount[i], finishCount[i], skipCount[i]
				if s != f {
					t.Errorf("item %d: %d starts but %d finishes", i, s, f)
				}
				if s > 0 && k > 0 {
					t.Errorf("item %d both started and skipped", i)
				}
				if s == 0 && k != 1 {
					t.Errorf("item %d never started but OnSkip fired %d times", i, k)
				}
				if f > 1 {
					t.Errorf("item %d finished %d times", i, f)
				}
			}
		})
	}
}

func TestProgressSkipped(t *testing.T) {
	var p Progress
	opts := p.Hooks()
	opts.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 6)
	_, err := Map(ctx, items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 2 {
			cancel() // interrupts the sweep after this run
		}
		return 0, nil
	}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation to surface", err)
	}
	s := p.Snapshot()
	if s.Skipped != len(items)-3 {
		t.Errorf("Skipped = %d, want %d (snapshot %+v)", s.Skipped, len(items)-3, s)
	}
	if s.Started != s.Finished {
		t.Errorf("started %d != finished %d", s.Started, s.Finished)
	}
	if !strings.Contains(s.String(), "3 skipped") {
		t.Errorf("String() = %q", s.String())
	}
}
