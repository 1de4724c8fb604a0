package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/wal"
)

// jobLogJournal adapts a wal.JobLog to the queue's Journal interface: every
// answer a job consumes is journaled under its question content key. Append
// failures are sticky inside the log and surface from JobLog.Err.
type jobLogJournal struct{ log *wal.JobLog }

func (j jobLogJournal) RecordAnswers(job int, answers []wal.KeyedAnswer) {
	_ = j.log.Answers(job, answers)
}

// SetJobLog installs the job journal: new jobs journal their spec and every
// crowd answer they consume, finished jobs journal their terminal state, and
// Recover can resume jobs the journal shows unfinished. Call before the
// handler serves traffic.
func (s *Server) SetJobLog(l *wal.JobLog) {
	s.mu.Lock()
	s.jobLog = l
	// The journal may remember job IDs whose records a compaction dropped;
	// never issue an ID at or below its floor.
	if l != nil && l.MaxJob() > s.nextJob {
		s.nextJob = l.MaxJob()
	}
	s.mu.Unlock()
	s.queue.SetJournal(jobLogJournal{log: l})
}

// Recover restarts every journaled job that never reached a terminal state,
// replaying its recorded answers so the run resumes at the first unanswered
// question instead of re-asking the crowd. Finished jobs are re-registered in
// their terminal state so /api/v1/jobs stays continuous across restarts.
// Only cleaning jobs are resumed: an unfinished view-repair job is registered
// and journaled as failed. It returns the number of jobs resumed; a job whose
// spec no longer validates against the schema is registered as failed rather
// than aborting the rest.
//
// Call after SetJobLog and before serving traffic, with the records returned
// by wal.OpenJobLog.
func (s *Server) Recover(records []wal.JobRecord) (resumed int, err error) {
	var errs []error
	for _, r := range records {
		s.mu.Lock()
		if r.ID > s.nextJob {
			s.nextJob = r.ID
		}
		s.mu.Unlock()

		if r.Done {
			s.mu.Lock()
			s.jobs[r.ID] = &Job{ID: r.ID, Query: r.Query, State: JobState(r.State), Recovered: true}
			s.mu.Unlock()
			continue
		}

		if isRepairSpec(r.Query) {
			s.mu.Lock()
			s.jobs[r.ID] = &Job{ID: r.ID, Query: r.Query, State: JobFailed, Error: "interrupted view-repair job: repair jobs are not resumed", Recovered: true}
			jl := s.jobLog
			s.mu.Unlock()
			if jl != nil {
				// Closed, the record never comes back; a failed append
				// leaves it open and the next boot fails it again.
				_ = jl.End(r.ID, string(JobFailed))
			}
			continue
		}

		q, parseErr := cq.Parse(r.Query)
		if parseErr == nil {
			parseErr = q.Validate(s.d.Schema())
		}
		if parseErr != nil {
			parseErr = fmt.Errorf("recovering job %d: %w", r.ID, parseErr)
			errs = append(errs, parseErr)
			s.mu.Lock()
			s.jobs[r.ID] = &Job{ID: r.ID, Query: r.Query, State: JobFailed, Error: parseErr.Error(), Recovered: true}
			s.mu.Unlock()
			continue
		}

		replay := make(map[string][]Answer, len(r.Answers))
		bad := false
		for key, raws := range r.Answers {
			for _, raw := range raws {
				var a Answer
				if decErr := json.Unmarshal(raw, &a); decErr != nil {
					decErr = fmt.Errorf("recovering job %d: bad journaled answer: %w", r.ID, decErr)
					errs = append(errs, decErr)
					s.mu.Lock()
					s.jobs[r.ID] = &Job{ID: r.ID, Query: r.Query, State: JobFailed, Error: decErr.Error(), Recovered: true}
					s.mu.Unlock()
					bad = true
					break
				}
				replay[key] = append(replay[key], a)
			}
			if bad {
				break
			}
		}
		if bad {
			continue
		}

		s.queue.SetReplay(r.ID, replay)
		// Recovered jobs bypass admission: they were admitted before the
		// crash and their journaled state must not be lost to load shedding.
		s.launchJob(r.ID, q, true, nil)
		resumed++
	}
	return resumed, errors.Join(errs...)
}
