// Package sweep is the host-side orchestration layer for parameter sweeps:
// the paper's figures are collections of *independent* simulations (one per
// benchmark × build × L3 size × operating mode), and this package fans them
// out across the host's cores with a bounded worker pool.
//
// The pool is deliberately dumb about what it runs: tasks are opaque
// functions, results come back in input order, and optional hooks observe
// runs starting, finishing and being skipped. Every started run runs to
// an outcome: Map hands back every successful result and gathers the
// failures into one SweepError, so one bad run never discards another's
// work. Panics are isolated to their run (recovered into RunPanicError).
// Each run gets one attempt: a simulation is a pure function of its
// configuration, so a failed run fails the same way every time, and
// recovery is re-running a checkpointed sweep, not re-trying in place.
// Determinism is preserved by construction — each simulation owns its
// machine, job and RNG streams, and the pool never shares state between
// tasks — so a parallel sweep produces byte-identical counter dumps to a
// serial one (the determinism and chaos harnesses in the root package
// prove it, with and without injected faults).
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
// GOMAXPROCS workers and no hooks.
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
	// started because the sweep's context was cancelled first. It is
	// called sequentially, in index order, after all workers have
	// drained.
	OnSkip func(index int)
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
// into *RunPanicError. A failure cancels nothing: Map returns the results
// of every successful run, zero values at the other positions, plus a
// *SweepError listing per-index failures and the indices skipped because
// ctx was cancelled before they started. The error is nil only when every
// item succeeded.
//
// A nil ctx panics, as with the standard library. If ctx is cancelled
// after every item has started and none failed, ctx.Err() is returned.
func Map[I, O any](ctx context.Context, items []I, fn func(ctx context.Context, index int, item I) (O, error), opts Options) ([]O, error) {
	results := make([]O, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	var (
		mu     sync.Mutex
		failed []IndexedError
		next   int
	)
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
			for ctx.Err() == nil {
				i := claim()
				if i < 0 {
					return
				}
				if opts.OnStart != nil {
					opts.OnStart(i)
				}
				began := time.Now()
				out, err := runOnce(ctx, i, items[i], fn)
				if opts.OnFinish != nil {
					opts.OnFinish(i, time.Since(began), err)
				}
				if err != nil {
					mu.Lock()
					failed = append(failed, IndexedError{Index: i, Err: err})
					mu.Unlock()
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
	if len(failed) == 0 && len(skipped) == 0 {
		return results, ctx.Err()
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	return results, &SweepError{Failed: failed, Skipped: skipped, Cause: ctx.Err()}
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
