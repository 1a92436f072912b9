package server

// Boot-time journal replay: reconstruct the job table the previous instance
// journaled, re-queue everything non-terminal, and compact the log. Runs
// inside New, strictly before the first new append and before the job
// workers start, so replay never races admissions and compaction never
// drops a fresh record.
//
// Recovery is idempotent by content addressing: a re-queued job's id is the
// hash of its spec, and each of its runs resolves through the RunKey result
// cache, so runs the dead instance already persisted restore from the
// checkpoint store instead of re-simulating — crash recovery costs only the
// work the crash actually lost.

import (
	"bytes"
	"fmt"
	"time"

	"bgpsim/internal/journal"
)

// replayedJob is the folded journal state of one job id: its last submit
// record and latest state transition.
type replayedJob struct {
	submit     journal.Record
	state      string
	errMsg     string
	recoveries int
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
				rj.submit = rec
				rj.state = StateQueued
				rj.errMsg = ""
				rj.recoveries = 0
				continue
			}
			jobs[rec.Job] = &replayedJob{submit: rec, state: StateQueued}
			order = append(order, rec.Job)
		case journal.KindState:
			if rj, ok := jobs[rec.Job]; ok {
				rj.state = rec.State
				rj.errMsg = rec.Error
				rj.recoveries = rec.Recoveries
			}
		}
	}
	return jobs, order
}

// recoverJournal replays the journal into the job table: terminal jobs are
// re-registered so their ids keep answering the API, and every non-terminal
// job is re-queued at once, within its recovery budget. Waiting for nothing
// is sound because the journal's lock is held: whoever journaled a job
// running has died. The log is then compacted to the folded live state.
func (s *Server) recoverJournal(recs []journal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalReplayed.Add(uint64(len(recs)))
	jobs, order := foldRecords(recs)

	var live []journal.Record
	for _, id := range order {
		rj := jobs[id]
		if !s.recoverJob(id, rj) {
			continue
		}
		live = append(live, rj.submit)
		switch rj.state {
		case StateDone, StateFailed:
			live = append(live, journal.Record{
				Kind: journal.KindState, Job: id, State: rj.state, Error: rj.errMsg,
			})
		default:
			if rj.recoveries > 0 {
				live = append(live, journal.Record{
					Kind: journal.KindState, Job: id, State: StateQueued,
					Recoveries: rj.recoveries,
				})
			}
		}
	}
	if err := s.jnl.Compact(live); err != nil {
		// Compaction is an optimization; the uncompacted log replays
		// identically next boot.
		s.journalErrors.Inc()
	}
}

// recoverJob reconstructs one folded job. It returns false when the job
// must be dropped from the compacted log (its journaled spec no longer
// decodes to the same content address — nothing can be recovered from it).
func (s *Server) recoverJob(id string, rj *replayedJob) bool {
	spec, cfgs, err := DecodeJobSpec(bytes.NewReader(rj.submit.Spec))
	if err == nil && JobID(spec, cfgs) != id {
		err = fmt.Errorf("journaled spec hashes to %s, record says %s", JobID(spec, cfgs), id)
	}
	if err != nil {
		// The record passed its CRC but the spec is semantically unusable
		// (a version skew in the spec schema, or a hand-edited log).
		s.journalRecoveryFailed.Inc()
		return false
	}
	j := s.newJob(id, spec, cfgs, time.Unix(rj.submit.CreatedUnix, 0))

	switch rj.state {
	case StateFailed:
		// Terminal: keep the id answering the API, nothing to re-run.
		j.state = StateFailed
		j.errMsg = rj.errMsg
		close(j.done)
		s.jobs[id] = j
		return true
	case StateRunning:
		// The daemon died mid-job. Burn one recovery and trip the breaker
		// when the budget is gone: a spec that crashes the daemon every
		// time it runs must not wedge every future boot.
		j.recoveries = rj.recoveries + 1
		rj.recoveries = j.recoveries
		if j.recoveries > s.cfg.MaxRecoveries {
			j.state = StateFailed
			j.errMsg = fmt.Sprintf(
				"abandoned after %d crash recoveries (the daemon died while running it each time); resubmit to retry",
				s.cfg.MaxRecoveries)
			rj.state, rj.errMsg = StateFailed, j.errMsg
			close(j.done)
			s.jobs[id] = j
			s.journalRecoveryFailed.Inc()
			s.jobsFailed.Inc()
			return true
		}
	case StateDone:
		// Completed work replays as pure store hits; re-queue it so the
		// job id serves results again without holding boot hostage.
	}

	// Live job: register and queue it, visible to the API immediately.
	if rj.state != StateDone {
		s.journalRecovered.Inc()
	}
	s.admitLocked(j)
	return true
}
