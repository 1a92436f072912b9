// Package sweep is the host-side orchestration layer for parameter sweeps:
// the paper's figures are collections of *independent* simulations (one per
// benchmark × build × L3 size × operating mode), and this package fans them
// out across the host's cores with a bounded worker pool.
//
// The pool is deliberately dumb about what it runs: tasks are opaque
// functions, results come back in input order, and optional hooks observe
// runs starting, finishing and being skipped. Failure handling is
// configurable per sweep: by default the first failure cancels everything
// still pending (context-based), while ContinueOnError gathers per-run
// failures into one SweepError and returns every successful result. Panics
// are always isolated to their run (recovered into RunPanicError). Each run
// gets one attempt: a simulation is a pure function of its configuration,
// so a failed run fails the same way every time, and recovery is resuming
// a checkpointed sweep, not re-trying in place. Determinism is preserved by
// construction — each simulation owns its machine, job and RNG streams, and
// the pool never shares state between tasks — so a parallel sweep produces
// byte-identical counter dumps to a serial one (the determinism and chaos
// harnesses in the root package prove it, with and without injected
// faults).
package sweep

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Options configures a pool invocation. The zero value runs with
// GOMAXPROCS workers, no hooks and first-error-cancels semantics.
type Options struct {
	// Workers bounds the number of tasks in flight; values below 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// OnStart, when non-nil, is called as a worker picks up item index.
	// It may be called concurrently from several workers.
	OnStart func(index int)
	// OnFinish, when non-nil, is called as item index completes with its
	// host wall time and final error (nil on success). It fires exactly
	// once per started item — including items whose error is the sweep's
	// own cancellation — and never for items that were skipped. It may be
	// called concurrently from several workers.
	OnFinish func(index int, wall time.Duration, err error)
	// OnSkip, when non-nil, is called once per item that was never
	// started because the sweep aborted first (task failure under the
	// default semantics, or context cancellation under either). It is
	// called sequentially, in index order, after all workers have
	// drained.
	OnSkip func(index int)
	// ContinueOnError keeps the sweep going past failed runs: instead of
	// cancelling pending work on the first failure, Map collects every
	// run's error and returns the successful results alongside one
	// *SweepError. Context cancellation still stops the sweep.
	ContinueOnError bool
}

// workers resolves the effective worker count for n items.
func (o Options) workers(n int) int {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Map runs fn over every item with a bounded worker pool and returns the
// results in input order. Each item runs once; a panic in fn is recovered
// into *RunPanicError.
//
// Under the default semantics the first (lowest-index) failure cancels the
// context passed to still-running tasks, prevents pending tasks from
// starting, and is returned after in-flight tasks drain — so the reported
// failure does not depend on scheduling. With ContinueOnError, failures
// don't cancel anything: Map returns the results of every successful run
// plus a *SweepError listing per-index failures (and indices skipped due to
// context cancellation); the error is nil only when every item succeeded.
//
// A nil ctx panics, as with the standard library. If ctx is cancelled
// before or during the sweep, tasks not yet started are skipped and
// ctx.Err() is returned unless a task error takes precedence.
func Map[I, O any](ctx context.Context, items []I, fn func(ctx context.Context, index int, item I) (O, error), opts Options) ([]O, error) {
	results := make([]O, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	poolCtx := ctx
	cancel := context.CancelFunc(func() {})
	if !opts.ContinueOnError {
		poolCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var (
		mu      sync.Mutex
		failed  []IndexedError
		errIdx  = -1
		firstEr error
		next    int
	)
	fail := func(i int, err error) {
		mu.Lock()
		failed = append(failed, IndexedError{Index: i, Err: err})
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		if !opts.ContinueOnError {
			cancel()
		}
	}
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(items) {
			return -1
		}
		i := next
		next++
		return i
	}

	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if poolCtx.Err() != nil {
					return
				}
				i := claim()
				if i < 0 {
					return
				}
				if opts.OnStart != nil {
					opts.OnStart(i)
				}
				began := time.Now()
				out, err := runOnce(poolCtx, i, items[i], fn)
				if opts.OnFinish != nil {
					opts.OnFinish(i, time.Since(began), err)
				}
				if err != nil {
					fail(i, err)
					if !opts.ContinueOnError {
						return
					}
					continue
				}
				results[i] = out
			}
		}()
	}
	wg.Wait()

	// Items never claimed were skipped; claim order is sequential, so
	// they are exactly the tail from next on.
	skipped := make([]int, 0, len(items)-next)
	for i := next; i < len(items); i++ {
		skipped = append(skipped, i)
		if opts.OnSkip != nil {
			opts.OnSkip(i)
		}
	}

	if opts.ContinueOnError {
		if len(failed) == 0 && len(skipped) == 0 {
			return results, ctx.Err()
		}
		sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
		return results, &SweepError{Failed: failed, Skipped: skipped, Cause: ctx.Err()}
	}
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runOnce executes item i, converting a panic into a *RunPanicError so one
// bad run cannot kill the pool.
func runOnce[I, O any](ctx context.Context, i int, item I, fn func(context.Context, int, I) (O, error)) (out O, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &RunPanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}
