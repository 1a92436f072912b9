package bgp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bgpsim/internal/bgpctr"
	"bgpsim/internal/faults"
	"bgpsim/internal/obs"
	"bgpsim/internal/sweep"
)

// ErrNotCheckpointed is returned (wrapped, per run) by a ResumeOnly sweep
// for runs with no valid checkpoint entry: nothing is executed, the run is
// simply reported missing.
var ErrNotCheckpointed = errors.New("bgp: run not in checkpoint")

// SweepConfig configures a parallel sweep of independent runs: the pool,
// resilience, checkpointing and sweep-level observation. How each run
// executes (ProgCache, the accelerator opt-outs) is set on its
// RunConfig, the only place those knobs exist.
//
// Parallelism is strictly cross-run: each simulation still executes its
// ranks under the cooperative deterministic scheduler on one goroutine
// chain, so every run produces exactly the counter values it would produce
// serially — RunAll at any worker count yields byte-identical dumps and
// metrics to a loop over Run (the determinism harness in bgp_parallel_test
// asserts this per operating mode). The same holds across failures: a
// retried, resumed or previously-panicked run re-executes from scratch with
// its own fresh machine and RNG streams, so recovery never perturbs counter
// values (the chaos harness in bgp_chaos_test pins this byte-for-byte).
type SweepConfig struct {
	// Workers bounds the number of simulations in flight; values below 1
	// mean runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, observes runs starting, finishing, being
	// retried and being skipped, and accumulates aggregate
	// simulated-cycle throughput.
	Progress *sweep.Progress
	// Observer, when non-nil, receives the sweep's orchestration events
	// (retries, panics, failures, skips, checkpoint persists/restores)
	// and is attached to every run whose own RunConfig.Observer is nil,
	// so one recorder sees the whole sweep. It is called from every
	// worker and must be safe for concurrent use.
	Observer Observer

	// Retries is the per-run retry budget for failures classified
	// transient (injected transient faults, panics, and per-run deadline
	// overruns), with capped exponential backoff between attempts.
	Retries int
	// RunTimeout, when positive, bounds each attempt of each run with a
	// derived context deadline; an overrun attempt counts as transient.
	RunTimeout time.Duration
	// ContinueOnError keeps the sweep going past failed runs: RunAll then
	// returns every successful result, with nils at failed positions, and
	// one *sweep.SweepError listing the per-run failures.
	ContinueOnError bool

	// CheckpointDir, when non-empty, persists each completed run's CRC'd
	// dump set under the directory its identity names (RunKey at index 0,
	// as bgpd keys it), committed by the run's own entry record. Every
	// position of one identity, in any sweep or tool, shares one entry, and
	// any number of sweeps — sequential or concurrent, in one process or
	// several — may share a directory.
	CheckpointDir string
	// Resume restores runs whose entry record validates (configuration
	// fingerprint, file sizes and CRCs all match) instead of re-executing
	// them; runs with missing or corrupt artifacts re-run, and so do runs
	// that sample a timeline (the samples are not persisted). A restored
	// run's dumps are written to its DumpDir as a live run's would be.
	Resume bool
	// ResumeOnly renders from the checkpoint alone: runs without a valid
	// entry fail with ErrNotCheckpointed instead of executing. Combine
	// with ContinueOnError to get partial results from an incomplete
	// checkpoint.
	ResumeOnly bool

	// Faults, when non-nil, is the deterministic fault injector consulted
	// once per attempt; it exists so every recovery path above is
	// exercisable in CI, byte-for-byte reproducibly. Injected faults
	// never touch simulation RNG streams.
	Faults *faults.Injector
}

// RunAll executes independent runs concurrently on a bounded worker pool
// and returns the results in cfgs order. Under the default semantics the
// first failure cancels runs not yet started and is returned wrapped with
// the run's position and configuration; a cancelled ctx stops the sweep the
// same way. With ContinueOnError, failures are gathered instead (see
// SweepConfig); with CheckpointDir and Resume, completed runs persist and
// valid checkpoint entries are restored instead of re-executed.
func RunAll(ctx context.Context, cfgs []RunConfig, sc SweepConfig) ([]*Result, error) {
	var opts sweep.Options
	if sc.Progress != nil {
		opts = sc.Progress.Hooks()
	}
	opts.Workers = sc.Workers
	opts.ContinueOnError = sc.ContinueOnError
	opts.RunTimeout = sc.RunTimeout
	opts.Retry.Retries = sc.Retries
	if ob := sc.Observer; ob != nil {
		prevFinish, prevSkip, prevRetry := opts.OnFinish, opts.OnSkip, opts.Retry.OnRetry
		opts.OnFinish = func(i int, wall time.Duration, err error) {
			if err != nil {
				sweepEvent(ob, obs.EventRunFailed)
				var pe *sweep.RunPanicError
				if errors.As(err, &pe) {
					sweepEvent(ob, obs.EventPanic)
				}
			}
			if prevFinish != nil {
				prevFinish(i, wall, err)
			}
		}
		opts.OnSkip = func(i int) {
			sweepEvent(ob, obs.EventRunSkipped)
			if prevSkip != nil {
				prevSkip(i)
			}
		}
		opts.Retry.OnRetry = func(i, attempt int, err error) {
			sweepEvent(ob, obs.EventRetry)
			var pe *sweep.RunPanicError
			if errors.As(err, &pe) {
				sweepEvent(ob, obs.EventPanic)
			}
			if prevRetry != nil {
				prevRetry(i, attempt, err)
			}
		}
	}
	var ckpt *CheckpointStore
	if sc.CheckpointDir != "" {
		var err error
		if ckpt, err = OpenCheckpointStore(sc.CheckpointDir, false); err != nil {
			return nil, err
		}
	}
	return sweep.Map(ctx, cfgs, func(ctx context.Context, i int, cfg RunConfig) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Checkpoint entries are keyed by identity, shared by every position
		// that runs it; faults by position, so one fires where it was armed.
		key, at := RunKey(0, cfg), RunKey(i, cfg)
		if cfg.Observer == nil {
			cfg.Observer = sc.Observer
		}
		if ckpt != nil && (sc.Resume || sc.ResumeOnly) {
			if res := ckpt.Restore(key, cfg); res != nil {
				if cfg.DumpDir != "" {
					if err := bgpctr.WriteDumps(cfg.DumpDir, res.Dumps); err != nil {
						return nil, runErr(i, cfg, err)
					}
				}
				sweepEvent(sc.Observer, obs.EventCheckpointRestore)
				return res, nil
			}
			if sc.ResumeOnly {
				return nil, runErr(i, cfg, ErrNotCheckpointed)
			}
		}
		// Consult the fault injector once per attempt; pre-run faults
		// fire before the simulation so retries re-execute from scratch.
		kind := sc.Faults.Next(at)
		switch kind {
		case faults.Transient:
			return nil, runErr(i, cfg, sc.Faults.Errorf(at))
		case faults.Panic:
			panic(fmt.Sprintf("faults: injected panic in run %d (%s)", i, at))
		case faults.Stall:
			<-ctx.Done()
			return nil, runErr(i, cfg, fmt.Errorf("stalled: %w", ctx.Err()))
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, runErr(i, cfg, err)
		}
		if ckpt != nil {
			w := *ckpt
			if kind == faults.CorruptDump {
				w.mutate = func(name string, blob []byte) []byte {
					return sc.Faults.Corrupt(at+"/"+name, blob, bgpctr.FieldBoundaries(blob))
				}
			}
			if err := w.Persist(key, cfg, res); err != nil {
				return nil, runErr(i, cfg, fmt.Errorf("checkpoint: %w", err))
			}
			sweepEvent(sc.Observer, obs.EventCheckpointPersist)
		}
		if sc.Progress != nil {
			sc.Progress.AddSimCycles(res.Metrics.ExecCycles)
		}
		return res, nil
	}, opts)
}

// runErr wraps a run's failure with its sweep position and configuration.
func runErr(i int, cfg RunConfig, err error) error {
	return fmt.Errorf("run %d (%s.%s %v): %w", i, runName(cfg), cfg.Class, cfg.Mode, err)
}
