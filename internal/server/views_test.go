package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/wal"
)

// newViewServer builds a test server over Figure 1 with a simulated HTTP
// crowd member answering from the ground truth.
func newViewServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	d, dg := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	member := &v1Crowd{base: ts.URL, oracle: crowd.NewPerfect(dg), stop: make(chan struct{})}
	go member.run()
	return ts, func() {
		close(member.stop)
		srv.Close()
		ts.Close()
	}
}

func TestViewRegisterAndFetch(t *testing.T) {
	ts, done := newViewServer(t)
	defer done()

	res := postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "winners", Query: dataset.IntroQ1().String()})
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/v1/views status = %d", res.StatusCode)
	}
	res.Body.Close()

	// Duplicate registration conflicts.
	res2 := postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "winners", Query: dataset.IntroQ1().String()})
	if res2.StatusCode != http.StatusConflict {
		t.Errorf("duplicate view status = %d, want 409", res2.StatusCode)
	}
	res2.Body.Close()

	// Listing includes the view.
	lres, err := http.Get(ts.URL + "/api/v1/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]interface{}
	json.NewDecoder(lres.Body).Decode(&list)
	lres.Body.Close()
	if len(list) != 1 || list[0]["name"] != "winners" {
		t.Errorf("view list = %v", list)
	}

	// Rows of the dirty view: (ESP) and (GER).
	rres, err := http.Get(ts.URL + "/api/v1/views/winners")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(rres.Body).Decode(&out)
	rres.Body.Close()
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func waitJob(t *testing.T, base string, id int) Job {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not finish", id)
		}
		r, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var cur Job
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State != JobRunning {
			return cur
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestViewReportWrongAnswer drives the §1 workflow over HTTP: a user reports
// (ESP) as wrong in the winners view; QOCO removes it and the view no longer
// lists it.
func TestViewReportWrongAnswer(t *testing.T) {
	ts, done := newViewServer(t)
	defer done()

	postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "winners", Query: dataset.IntroQ1().String()}).Body.Close()

	res := postJSON(t, ts.URL+"/api/v1/views/winners/wrong", reportRequest{Tuple: []string{"ESP"}})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("report status = %d", res.StatusCode)
	}
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()

	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobDone {
		t.Fatalf("job = %+v", final)
	}
	if final.Report == nil || final.Report.Deletions == 0 {
		t.Errorf("report = %+v, want deletions", final.Report)
	}

	// The view, evaluated when read, no longer contains (ESP).
	rres, _ := http.Get(ts.URL + "/api/v1/views/winners")
	var out struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(rres.Body).Decode(&out)
	rres.Body.Close()
	for _, row := range out.Rows {
		if row[0] == "ESP" {
			t.Errorf("view still lists ESP: %v", out.Rows)
		}
	}
}

// TestViewReportMissingAnswer: reporting (ITA) as missing inserts its witness
// and the view gains the row.
func TestViewReportMissingAnswer(t *testing.T) {
	ts, done := newViewServer(t)
	defer done()

	postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "winners", Query: dataset.IntroQ1().String()}).Body.Close()
	res := postJSON(t, ts.URL+"/api/v1/views/winners/missing", reportRequest{Tuple: []string{"ITA"}})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("report status = %d", res.StatusCode)
	}
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()

	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobDone {
		t.Fatalf("job = %+v", final)
	}
	rres, _ := http.Get(ts.URL + "/api/v1/views/winners")
	var out struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(rres.Body).Decode(&out)
	rres.Body.Close()
	found := false
	for _, row := range out.Rows {
		if row[0] == "ITA" {
			found = true
		}
	}
	if !found {
		t.Errorf("view missing ITA after repair: %v", out.Rows)
	}
}

func TestViewEndpointErrors(t *testing.T) {
	ts, done := newViewServer(t)
	defer done()

	cases := []struct {
		method, path string
		body         interface{}
		want         int
	}{
		{"POST", "/api/v1/views", viewRequest{Query: "(x) :- Teams(x, EU)"}, http.StatusBadRequest}, // no name
		{"POST", "/api/v1/views", viewRequest{Name: "v", Query: "garbage"}, http.StatusBadRequest},  // bad query
		{"GET", "/api/v1/views/nope", nil, http.StatusNotFound},                                     // unknown view
		{"POST", "/api/v1/views/nope/wrong", reportRequest{Tuple: []string{"x"}}, http.StatusNotFound},
	}
	for _, c := range cases {
		var res *http.Response
		var err error
		if c.method == "POST" {
			res = postJSON(t, ts.URL+c.path, c.body)
		} else {
			res, err = http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
		}
		if res.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, res.StatusCode, c.want)
		}
		res.Body.Close()
	}

	// Arity mismatch on a real view.
	postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "w", Query: dataset.IntroQ1().String()}).Body.Close()
	res := postJSON(t, ts.URL+"/api/v1/views/w/wrong", reportRequest{Tuple: []string{"a", "b"}})
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("arity mismatch status = %d", res.StatusCode)
	}
	res.Body.Close()
	// Unsupported action.
	res2 := postJSON(t, ts.URL+"/api/v1/views/w/zap", reportRequest{Tuple: []string{"a"}})
	if res2.StatusCode != http.StatusNotFound {
		t.Errorf("bad action status = %d", res2.StatusCode)
	}
	res2.Body.Close()
}

// viewRows reads a registered view's rows over HTTP.
func viewRows(t *testing.T, base, name string) [][]string {
	t.Helper()
	res, err := http.Get(base + "/api/v1/views/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Rows [][]string `json:"rows"`
	}
	decodeBody(t, res, &out)
	return out.Rows
}

// TestViewTracksCleaningJob: a registered view is evaluated when it is read,
// so a view that is not the query being cleaned still reflects the job's
// edits. Cleaning Q1 inserts Teams(ITA, EU), which adds Pirlo and Totti to
// the scorers view.
func TestViewTracksCleaningJob(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		d, dg := dataset.Figure1()
		srv := New(d, core.Config{Incremental: incremental})
		ts := httptest.NewServer(srv.Handler())
		member := &v1Crowd{base: ts.URL, oracle: crowd.NewPerfect(dg), stop: make(chan struct{})}
		go member.run()

		views := map[string]*cq.Query{"winners": dataset.IntroQ1(), "scorers": dataset.IntroQ2()}
		for name, q := range views {
			res := postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: name, Query: q.String()})
			res.Body.Close()
			if res.StatusCode != http.StatusCreated {
				t.Fatalf("registering %s: status %d", name, res.StatusCode)
			}
		}
		before := fmt.Sprint(viewRows(t, ts.URL, "scorers"))

		res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
		var job Job
		decodeBody(t, res, &job)
		if final := waitJob(t, ts.URL, job.ID); final.State != JobDone {
			t.Fatalf("incremental=%v: job = %+v", incremental, final)
		}
		for name, q := range views {
			var want [][]string
			for _, row := range eval.Result(q, d, eval.NoCache()) {
				want = append(want, row)
			}
			if got := viewRows(t, ts.URL, name); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("incremental=%v: view %s = %v, want %v", incremental, name, got, want)
			}
		}
		if after := fmt.Sprint(viewRows(t, ts.URL, "scorers")); after == before {
			t.Errorf("incremental=%v: scorers view unchanged by the job: %s", incremental, after)
		}
		close(member.stop)
		srv.Close()
		ts.Close()
	}
}

// TestViewReportRejectsReservedBytes: a wrong or missing report whose tuple
// holds a reserved separator byte is refused with 400 before admission, so it
// creates no job and writes no journal record.
func TestViewReportRejectsReservedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	jl, _, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	srv.SetJobLog(jl)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	postJSON(t, ts.URL+"/api/v1/views", viewRequest{Name: "winners", Query: dataset.IntroQ1().String()}).Body.Close()
	for _, action := range []string{"wrong", "missing"} {
		res := postJSON(t, ts.URL+"/api/v1/views/winners/"+action, reportRequest{Tuple: []string{"IT\x1fA"}})
		var env envelope
		decodeBody(t, res, &env)
		if res.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
			t.Errorf("%s report: got %d %q, want 400 bad_request", action, res.StatusCode, env.Error.Code)
		}
	}
	res, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	decodeBody(t, res, &jobs)
	if len(jobs) != 0 {
		t.Errorf("refused reports created jobs: %+v", jobs)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 0 {
		t.Errorf("refused reports left %d journal records", len(recs))
	}
}
