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

// instantSleep substitutes the backoff timer so retry tests run instantly.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// transientErr self-classifies as retryable through the Transienter
// interface, like the fault injector's errors.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

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

func TestMapRetriesTransientErrors(t *testing.T) {
	var attempts atomic.Int64
	var retries atomic.Int64
	items := []int{0}
	out, err := Map(context.Background(), items, func(_ context.Context, _, _ int) (int, error) {
		if attempts.Add(1) <= 2 {
			return 0, transientErr{"flaky"}
		}
		return 42, nil
	}, Options{Workers: 1, Retry: RetryPolicy{
		Retries: 3,
		Sleep:   instantSleep,
		OnRetry: func(index, attempt int, err error) {
			retries.Add(1)
			if index != 0 || err == nil {
				t.Errorf("OnRetry(%d, %d, %v)", index, attempt, err)
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Errorf("out[0] = %d, want 42", out[0])
	}
	if a := attempts.Load(); a != 3 {
		t.Errorf("attempts = %d, want 3", a)
	}
	if r := retries.Load(); r != 2 {
		t.Errorf("OnRetry fired %d times, want 2", r)
	}
}

func TestMapRetryBudgetExhausts(t *testing.T) {
	var attempts atomic.Int64
	_, err := Map(context.Background(), []int{0}, func(_ context.Context, _, _ int) (int, error) {
		attempts.Add(1)
		return 0, transientErr{"always"}
	}, Options{Workers: 1, Retry: RetryPolicy{Retries: 2, Sleep: instantSleep}})
	if err == nil || err.Error() != "always" {
		t.Fatalf("err = %v, want the transient error", err)
	}
	if a := attempts.Load(); a != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", a)
	}
}

func TestMapDoesNotRetryPermanentErrors(t *testing.T) {
	var attempts atomic.Int64
	_, err := Map(context.Background(), []int{0}, func(_ context.Context, _, _ int) (int, error) {
		attempts.Add(1)
		return 0, errors.New("permanent")
	}, Options{Workers: 1, Retry: RetryPolicy{Retries: 5, Sleep: instantSleep}})
	if err == nil {
		t.Fatal("no error")
	}
	if a := attempts.Load(); a != 1 {
		t.Errorf("attempts = %d, want 1", a)
	}
}

func TestMapRetriesPanicsAndDeadlines(t *testing.T) {
	// A panic on the first attempt and a deadline overrun on the second
	// are both classified transient by DefaultClassify; the third attempt
	// succeeds.
	var attempts atomic.Int64
	out, err := Map(context.Background(), []int{0}, func(ctx context.Context, _, _ int) (int, error) {
		switch attempts.Add(1) {
		case 1:
			panic("injected")
		case 2:
			<-ctx.Done() // stall past the attempt deadline
			return 0, ctx.Err()
		}
		return 7, nil
	}, Options{Workers: 1, RunTimeout: 20 * time.Millisecond,
		Retry: RetryPolicy{Retries: 2, Sleep: instantSleep}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 {
		t.Errorf("out[0] = %d, want 7", out[0])
	}
}

func TestMapRunTimeoutWithoutRetryFails(t *testing.T) {
	_, err := Map(context.Background(), []int{0}, func(ctx context.Context, _, _ int) (int, error) {
		<-ctx.Done()
		return 0, fmt.Errorf("stalled: %w", ctx.Err())
	}, Options{Workers: 1, RunTimeout: 10 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestMapParentCancelIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	_, err := Map(ctx, []int{0}, func(ctx context.Context, _, _ int) (int, error) {
		attempts.Add(1)
		cancel() // the sweep dies while the run is in flight
		return 0, transientErr{"would-retry"}
	}, Options{Workers: 1, Retry: RetryPolicy{Retries: 5, Sleep: instantSleep}})
	if err == nil {
		t.Fatal("no error")
	}
	if a := attempts.Load(); a != 1 {
		t.Errorf("attempts = %d, want 1 (no retries after sweep cancel)", a)
	}
}

func TestMapContinueOnErrorGathersFailures(t *testing.T) {
	items := make([]int, 10)
	out, err := Map(context.Background(), items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 3 || idx == 7 {
			return 0, fmt.Errorf("fail %d", idx)
		}
		return idx + 1, nil
	}, Options{Workers: 4, ContinueOnError: true})
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
	if se.ErrAt(3) == nil || se.ErrAt(0) != nil {
		t.Error("ErrAt misreports failed indices")
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

func TestMapContinueOnErrorAllSucceed(t *testing.T) {
	out, err := Map(context.Background(), []int{1, 2, 3}, func(_ context.Context, _, v int) (int, error) {
		return v * 10, nil
	}, Options{Workers: 2, ContinueOnError: true})
	if err != nil {
		t.Fatalf("err = %v, want nil when every run succeeds", err)
	}
	if out[2] != 30 {
		t.Errorf("out = %v", out)
	}
}

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
		_, err = Map(ctx, items, func(_ context.Context, _, _ int) (int, error) {
			started.Add(1)
			<-release
			return 1, nil
		}, Options{Workers: 2, ContinueOnError: true, OnSkip: func(i int) {
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
	if len(se.Skipped) == 0 {
		t.Error("no skipped indices recorded")
	}
	if len(se.Skipped) != len(skipped) {
		t.Errorf("OnSkip fired %d times, SweepError lists %d", len(skipped), len(se.Skipped))
	}
}

// TestMapOnFinishOncePerStartedRun pins the hook contract: OnFinish fires
// exactly once for every item OnStart fired for — even when the run's error
// is the sweep's own cancellation — and never for skipped items.
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
					ContinueOnError: continueOnError,
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

func TestProgressSkippedAndRetried(t *testing.T) {
	var p Progress
	opts := p.Hooks()
	opts.Workers = 1
	opts.Retry.Retries = 1
	opts.Retry.Sleep = instantSleep
	var attempts atomic.Int64
	items := make([]int, 6)
	_, err := Map(context.Background(), items, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 0 && attempts.Add(1) == 1 {
			return 0, transientErr{"flaky once"}
		}
		if idx == 2 {
			return 0, errors.New("permanent") // aborts the sweep
		}
		return 0, nil
	}, opts)
	if err == nil {
		t.Fatal("expected the permanent failure to surface")
	}
	s := p.Snapshot()
	if s.Retried != 1 {
		t.Errorf("Retried = %d, want 1", s.Retried)
	}
	if s.Skipped == 0 {
		t.Errorf("Skipped = 0, want > 0 (snapshot %+v)", s)
	}
	if s.Started != s.Finished {
		t.Errorf("started %d != finished %d", s.Started, s.Finished)
	}
	if !strings.Contains(s.String(), "retried") || !strings.Contains(s.String(), "skipped") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{transientErr{"t"}, true},
		{fmt.Errorf("wrapped: %w", transientErr{"t"}), true},
		{&RunPanicError{Index: 1, Value: "v"}, true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("stalled: %w", context.DeadlineExceeded), true},
		{errors.New("permanent"), false},
		{context.Canceled, false},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("DefaultClassify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryPolicyDelayCaps(t *testing.T) {
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i, w := range want {
		if got := delay(i); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}
