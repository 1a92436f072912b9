package sweep

import (
	"fmt"
	"sync"
	"time"
)

// Progress accumulates the observable state of a sweep: how many runs have
// started and finished, how much host wall time they consumed, and how many
// simulated cycles they retired. It is safe for concurrent use by the pool
// workers; Snapshot returns a consistent view at any point during or after
// a sweep.
//
// Wire it to a pool invocation with Hooks, and credit simulated cycles from
// the task body (the pool cannot know what a result's cycle count is).
type Progress struct {
	mu        sync.Mutex
	began     time.Time
	started   int
	finished  int
	failed    int
	skipped   int
	wall      time.Duration
	simCycles uint64
}

// RunStarted records a run picking up; the first call starts the elapsed
// clock.
func (p *Progress) RunStarted(int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started == 0 {
		p.began = time.Now()
	}
	p.started++
}

// RunFinished records a run completing with its host wall time.
func (p *Progress) RunFinished(_ int, wall time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished++
	p.wall += wall
	if err != nil {
		p.failed++
	}
}

// RunSkipped records a run that never started because the sweep was cancelled
// first — skipped runs are distinct from failed ones (which started and
// errored).
func (p *Progress) RunSkipped(int) {
	p.mu.Lock()
	p.skipped++
	p.mu.Unlock()
}

// AddSimCycles credits n simulated cycles to the sweep's throughput
// figure. Task bodies call it with each completed run's cycle count.
func (p *Progress) AddSimCycles(n uint64) {
	p.mu.Lock()
	p.simCycles += n
	p.mu.Unlock()
}

// Hooks returns an Options with this tracker's methods installed (including
// the skip hook); callers overwrite Workers and failure semantics (and may
// wrap the hooks) as needed.
func (p *Progress) Hooks() Options {
	return Options{
		OnStart:  p.RunStarted,
		OnFinish: p.RunFinished,
		OnSkip:   p.RunSkipped,
	}
}

// Snapshot is a consistent copy of a tracker's counters.
type Snapshot struct {
	// Started and Finished count runs picked up and completed; Failed
	// counts completions with an error.
	Started, Finished, Failed int
	// Skipped counts runs never started because the sweep was cancelled first.
	Skipped int
	// Wall is the summed per-run host wall time (it exceeds Elapsed when
	// runs overlap — the ratio is the achieved parallelism).
	Wall time.Duration
	// Elapsed is the host time since the first run started.
	Elapsed time.Duration
	// SimCycles is the total simulated cycles credited so far.
	SimCycles uint64
}

// Snapshot returns the tracker's current counters.
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Started:   p.started,
		Finished:  p.finished,
		Failed:    p.failed,
		Skipped:   p.skipped,
		Wall:      p.wall,
		SimCycles: p.simCycles,
	}
	if p.started > 0 {
		s.Elapsed = time.Since(p.began)
	}
	return s
}

// CyclesPerSec is the aggregate simulated-cycles-per-host-second
// throughput (0 before any run starts).
func (s Snapshot) CyclesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.Elapsed.Seconds()
}

// Parallelism is the achieved concurrency: summed run wall time over
// elapsed time (0 before any run starts).
func (s Snapshot) Parallelism() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Wall) / float64(s.Elapsed)
}

// String formats a one-line progress report.
func (s Snapshot) String() string {
	return fmt.Sprintf("%d/%d runs done (%d failed, %d skipped), %.1fx parallel, %.3g sim-cycles/s",
		s.Finished, s.Started, s.Failed, s.Skipped, s.Parallelism(), s.CyclesPerSec())
}
