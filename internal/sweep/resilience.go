package sweep

// The pool's failure vocabulary and retry machinery. A run can fail four
// ways — return an error, panic, overrun its deadline, or be skipped because
// the sweep aborted first — and each gets a distinct, typed representation
// so callers can react per kind: panics become RunPanicError (isolated to
// their run instead of killing every worker), deadline overruns surface the
// attempt context's DeadlineExceeded, errors classified transient are
// retried with capped exponential backoff, and ContinueOnError sweeps gather
// everything into one SweepError instead of cancelling the world.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// RunPanicError wraps a panic recovered from a task: the run failed, but the
// pool and its other runs survive.
type RunPanicError struct {
	// Index is the item that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error describes the panic without the stack (retrieve Stack for it).
func (e *RunPanicError) Error() string {
	return fmt.Sprintf("run %d panicked: %v", e.Index, e.Value)
}

// IndexedError ties a run's error to its item index.
type IndexedError struct {
	// Index is the failed item.
	Index int
	// Err is the run's final error (after any retries).
	Err error
}

// Error formats the indexed failure.
func (e IndexedError) Error() string { return fmt.Sprintf("run %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying run error.
func (e IndexedError) Unwrap() error { return e.Err }

// SweepError aggregates the per-run failures of a ContinueOnError sweep in
// errors.Join style: the sweep still returned every successful result, and
// the error records exactly which runs did not contribute and why.
type SweepError struct {
	// Failed lists runs that started and failed, in ascending index order.
	Failed []IndexedError
	// Skipped lists runs never started because the sweep's context was
	// cancelled first, in ascending index order.
	Skipped []int
	// Cause is the sweep context's error when cancellation cut the sweep
	// short, nil otherwise.
	Cause error
}

// Error summarizes the failures (first few spelled out).
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d run(s) failed, %d skipped", len(e.Failed), len(e.Skipped))
	for i, f := range e.Failed {
		if i == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %v", f)
	}
	if e.Cause != nil {
		fmt.Fprintf(&b, " (%v)", e.Cause)
	}
	return b.String()
}

// Unwrap exposes every per-run error (and the cancellation cause), so
// errors.Is/As see through the aggregate.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, 0, len(e.Failed)+1)
	for _, f := range e.Failed {
		errs = append(errs, f.Err)
	}
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// ErrAt returns the error of run index (nil if it succeeded or was only
// skipped).
func (e *SweepError) ErrAt(index int) error {
	for _, f := range e.Failed {
		if f.Index == index {
			return f.Err
		}
	}
	return nil
}

// Transienter lets error types self-classify as retryable; the fault
// injector's errors implement it.
type Transienter interface{ Transient() bool }

// DefaultClassify is the retry classification: errors worth retrying are
// those that self-classify through Transienter, panics (a run is
// deterministic, so a genuine panic simply recurs and exhausts the budget,
// while an environmental one heals), and per-attempt deadline overruns.
func DefaultClassify(err error) bool {
	var tr Transienter
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	var pe *RunPanicError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// RetryPolicy bounds per-run retries of transient failures. The zero value
// never retries.
type RetryPolicy struct {
	// Retries is the number of additional attempts after the first.
	Retries int
	// OnRetry, when non-nil, observes retry number attempt (1-based) of
	// item index being scheduled after err. It may be called concurrently.
	OnRetry func(index, attempt int, err error)
	// Sleep waits out a backoff delay; nil means a context-aware timer.
	// Tests substitute an instant sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// The backoff before the first retry, doubling per retry up to the cap.
const (
	baseDelay = 10 * time.Millisecond
	maxDelay  = time.Second
)

// delay returns the capped exponential backoff before retry attempt
// (0-based).
func delay(attempt int) time.Duration {
	d := baseDelay
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
