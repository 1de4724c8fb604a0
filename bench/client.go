package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/server"
)

// client is one HTTP client of the benchmark with a single connection. Each
// request is a failed operation when it errors, times out after httpTimeout,
// or answers with a non-2xx status.
type client struct {
	base     string
	hc       *http.Client
	tr       *tracer
	requests int
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{
			Timeout:   httpTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out when it is
// non-nil. route names the request's span, server.http.<route>_s.
func (c *client) do(ctx context.Context, method, route, path string, body, out interface{}) error {
	c.requests++
	if c.tr != nil {
		defer c.tr.begin(spanHTTP+route, true)()
	}
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// driveJob submits q and plays the crowd until the job is terminal: it
// polls for questions, answers each from the oracle and polls again at
// once, and after an empty poll checks GET /api/v1/jobs, then sleeps
// pollSleep. GET /api/v1/jobs/{id} would block while a completion question
// is pending (see README), so the job list is the end-of-job signal.
func driveJob(ctx context.Context, c *client, q *cq.Query, oracle crowd.Oracle, res *jobResult) (server.Job, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var job server.Job
	if err := c.do(ctx, http.MethodPost, "clean", "/api/v1/clean", map[string]string{"query": q.String()}, &job); err != nil {
		return job, err
	}
	for {
		var pending []*server.Question
		if err := c.do(ctx, http.MethodGet, "questions", "/api/v1/questions", nil, &pending); err != nil {
			return job, err
		}
		res.polls++
		if len(pending) > 0 {
			res.hits++
			for _, qu := range pending {
				// The simulated crowd member; on traced jobs oracle is a
				// tracedOracle, so this counts as crowd time.
				a, err := cluster.AnswerQuestion(ctx, qu, oracle)
				if err != nil {
					return job, err
				}
				path := fmt.Sprintf("/api/v1/questions/%d/answer", qu.ID)
				if err := c.do(ctx, http.MethodPost, "answer", path, a, nil); err != nil {
					return job, err
				}
				res.answers++
			}
			continue
		}
		var jobs []server.Job
		if err := c.do(ctx, http.MethodGet, "jobs", "/api/v1/jobs", nil, &jobs); err != nil {
			return job, err
		}
		for _, j := range jobs {
			if j.ID == job.ID && j.State != server.JobRunning {
				return j, nil
			}
		}
		select {
		case <-ctx.Done():
			return job, fmt.Errorf("job %d: %w", job.ID, ctx.Err())
		case <-time.After(pollSleep):
		}
	}
}

// checkServerOutput verifies a finished server job: it ended in done, the
// server's /api/v1/query over the cleaned store equals Q(DG), and every edit
// moved the store toward DG.
func checkServerOutput(ctx context.Context, c *client, in jobInput, job server.Job) error {
	if job.State != server.JobDone {
		return fmt.Errorf("job %d ended %s: %s", job.ID, job.State, job.Error)
	}
	var out struct {
		Rows [][]string `json:"rows"`
	}
	if err := c.do(ctx, http.MethodGet, "check", "/api/v1/query?q="+url.QueryEscape(in.q.String()), nil, &out); err != nil {
		return err
	}
	got := make([]db.Tuple, len(out.Rows))
	for i, r := range out.Rows {
		got[i] = r
	}
	return checkOutput(in, got, job.Report)
}

// waitJournal waits until the job journal has taken want records since
// before, or fails after a second.
func waitJournal(fs countingFS, before fsTally, want int64) error {
	deadline := time.Now().Add(time.Second)
	for fs.read().writes-before.writes < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("journal took %d of %d records", fs.read().writes-before.writes, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// readResult is one open-loop read: its latency counted from the time it
// was due, and how late the generator sent it.
type readResult struct {
	latency, late time.Duration
	err           error
}

// readLoad sends GET requests from its own client on a fixed schedule
// while a job runs. Reads fall due every readInterval whether or not the
// previous one has returned; each is timed from when it was due, so a read
// stuck behind the job's store lock also delays the reads queued behind it.
type readLoad struct {
	stop    chan struct{}
	stopAt  time.Time // written before stop is closed
	done    chan struct{}
	results []readResult
}

func startReads(ctx context.Context, c *client, path string) *readLoad {
	r := &readLoad{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(r.done)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * readInterval)
			if wait := time.Until(due); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-r.stop:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			select {
			case <-r.stop:
				if !due.Before(r.stopAt) {
					return
				}
			default:
			}
			sent := time.Now()
			err := c.do(ctx, http.MethodGet, "query", path, nil, nil)
			r.results = append(r.results, readResult{latency: time.Since(due), late: sent.Sub(due), err: err})
		}
	}()
	return r
}

// finish stops the schedule, lets every read that fell due before now go
// out, and returns the results once the generator has exited.
func (r *readLoad) finish() []readResult {
	r.stopAt = time.Now()
	close(r.stop)
	<-r.done
	return r.results
}
