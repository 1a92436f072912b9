package sweep

// The pool's failure vocabulary. A run can fail three ways — return an
// error, panic, or be skipped because the sweep aborted first — and each
// gets a distinct, typed representation so callers can react per kind:
// panics become RunPanicError (isolated to their run instead of killing
// every worker), and a sweep gathers everything into one SweepError
// instead of cancelling the world. A run gets one attempt: it is
// a pure function of its configuration, so an attempt that failed once
// fails the same way again.

import (
	"fmt"
	"strings"
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
	// Err is the run's error.
	Err error
}

// Error formats the indexed failure.
func (e IndexedError) Error() string { return fmt.Sprintf("run %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying run error.
func (e IndexedError) Unwrap() error { return e.Err }

// SweepError aggregates the per-run failures of a sweep in
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
