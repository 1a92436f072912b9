package server

// Boot-time journal replay: reconstruct the job table the previous instance
// journaled, register every finished job from its terminal record, re-queue
// everything non-terminal, and compact the log. Runs inside New, strictly
// before the first new append and before the job workers start, so replay
// never races admissions and compaction never drops a fresh record.
//
// A finished job costs the replay one spec decode and nothing else: its
// terminal record carries what its status shows, its results stay in the
// checkpoint store, and a fetch that finds an entry lost re-resolves it
// then. Recovery of live jobs is idempotent by content addressing: a
// re-queued job's id is the hash of its spec, and each of its runs resolves
// through the RunKey result cache, so runs the dead instance already
// persisted restore from the checkpoint store instead of re-simulating —
// crash recovery costs only the work the crash actually lost.

import (
	"bytes"
	"fmt"
	"time"

	"bgpsim/internal/journal"
)

// replayedJob is the folded journal state of one job id: its last submit
// record and the latest state record after it (zero while it has none,
// which is a queued job).
type replayedJob struct {
	submit journal.Record
	last   journal.Record
}

// foldRecords reduces a replayed record sequence to per-job state, last
// write wins, in first-submission order. Unknown kinds — the lease records
// older daemons wrote among them — and state records without a preceding
// submit are ignored (a compacted prefix plus a torn tail can orphan them;
// they carry no recoverable work).
func foldRecords(recs []journal.Record) (jobs map[string]*replayedJob, order []string) {
	jobs = make(map[string]*replayedJob)
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindSubmit:
			if rj, ok := jobs[rec.Job]; ok {
				// Resubmission of a previously failed job: fresh lifecycle.
				*rj = replayedJob{submit: rec}
				continue
			}
			jobs[rec.Job] = &replayedJob{submit: rec}
			order = append(order, rec.Job)
		case journal.KindState:
			if rj, ok := jobs[rec.Job]; ok {
				rj.last = rec
			}
		}
	}
	return jobs, order
}

// recoverJournal replays the journal into the job table: terminal jobs are
// registered from their records so their ids keep answering the API, and
// every non-terminal job is re-queued at once, within its recovery budget.
// Waiting for nothing is sound because the journal's lock is held: whoever
// journaled a job running has died. The log is then compacted to each kept
// job's submit record plus its state, when that is terminal or has burnt
// recoveries.
func (s *Server) recoverJournal(recs []journal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalReplayed.Add(uint64(len(recs)))
	jobs, order := foldRecords(recs)

	var live []journal.Record
	for _, id := range order {
		rj := jobs[id]
		j := s.recoverJob(id, rj)
		if j == nil {
			continue
		}
		live = append(live, rj.submit)
		if rec := j.record(); rec.State != StateQueued || rec.Recoveries > 0 {
			live = append(live, rec)
		}
	}
	if err := s.jnl.Compact(live); err != nil {
		// Compaction is an optimization; the uncompacted log replays
		// identically next boot.
		s.journalErrors.Inc()
	}
}

// recoverJob reconstructs one folded job and registers it: a terminal job
// from its record, a live one queued. It returns nil when the job must be
// dropped from the compacted log (its journaled spec no longer decodes to
// the same content address — nothing can be recovered from it).
func (s *Server) recoverJob(id string, rj *replayedJob) *job {
	spec, cfgs, err := DecodeJobSpec(bytes.NewReader(rj.submit.Spec))
	if err == nil && JobID(spec, cfgs) != id {
		err = fmt.Errorf("journaled spec hashes to %s, record says %s", JobID(spec, cfgs), id)
	}
	if err != nil {
		// The record passed its CRC but the spec is semantically unusable
		// (a version skew in the spec schema, or a hand-edited log).
		s.journalRecoveryFailed.Inc()
		return nil
	}
	j := newJob(id, spec, cfgs, time.Unix(rj.submit.CreatedUnix, 0))
	rec := rj.last
	j.recoveries = rec.Recoveries

	if rec.State == StateRunning {
		// The daemon died mid-job. Burn one recovery and trip the breaker
		// when the budget is gone: a spec that crashes the daemon every
		// time it runs must not wedge every future boot.
		j.recoveries++
		if j.recoveries > s.cfg.MaxRecoveries {
			rec = journal.Record{State: StateFailed, Error: fmt.Sprintf(
				"abandoned after %d crash recoveries (the daemon died while running it each time); resubmit to retry",
				s.cfg.MaxRecoveries)}
			s.journalRecoveryFailed.Inc()
			s.jobsFailed.Inc()
		}
	}

	switch rec.State {
	case StateDone, StateFailed:
		// Terminal: the record is the job. A done job completed every run
		// (records written before the counts existed carry none), and a
		// job's failed runs are the ones it did not complete.
		j.state = rec.State
		j.errMsg = rec.Error
		j.completed = rec.Completed
		if j.state == StateDone {
			j.completed = len(cfgs)
		}
		j.failed = len(cfgs) - j.completed
		j.cacheHits = rec.CacheHits
		close(j.done)
		s.jobs[id] = j
		return j
	}
	// Live job: register and queue it, visible to the API immediately.
	s.journalRecovered.Inc()
	s.admitLocked(j)
	return j
}
