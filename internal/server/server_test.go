package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(body)
	res, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return res
}

// TestServerEndToEnd runs the whole Figure 5 loop over HTTP: a clean job on
// the Figure 1 database, answered by a simulated crowd member hitting the
// question API, must converge to the ground-truth result.
func TestServerEndToEnd(t *testing.T) {
	d, dg := dataset.Figure1()
	srv := New(d, core.Config{})
	eval.Instrument(srv.Obs())
	defer eval.Instrument(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	member := &v1Crowd{base: ts.URL, oracle: crowd.NewPerfect(dg), stop: make(chan struct{})}
	go member.run()
	defer close(member.stop)

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/v1/clean status = %d", res.StatusCode)
	}
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not finish", job.ID)
		}
		r, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		var cur Job
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State == JobDone {
			if cur.Report == nil || cur.Report.WrongAnswers != 1 || cur.Report.MissingAnswers != 1 {
				t.Fatalf("report = %+v", cur.Report)
			}
			break
		}
		if cur.State == JobFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The terminal state is published after finishJob released the store's
	// eval-cache sections through eval.InvalidateDB, which counts only the
	// calls that found a section: the job released one, and a second call
	// now finds none left.
	n := srv.Obs().Counter(eval.MetricCacheDBInvalidations)
	if n == 0 {
		t.Errorf("the job released no eval-cache section")
	}
	eval.InvalidateDB(d.ID())
	if got := srv.Obs().Counter(eval.MetricCacheDBInvalidations); got != n {
		t.Errorf("eval cache still held a section for the store after job completion")
	}

	// The database now matches the ground truth on the query.
	want := eval.Result(dataset.IntroQ1(), dg)
	got := eval.Result(dataset.IntroQ1(), d)
	if len(got) != len(want) {
		t.Fatalf("cleaned result %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("cleaned result %v, want %v", got, want)
		}
	}
}

func TestServerQueryEndpoint(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/api/v1/query?q=" + strings.ReplaceAll("(x) :- Teams(x, EU)", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(res.Body).Decode(&out)
	if len(out.Rows) != 3 {
		t.Errorf("rows = %v, want 3 EU teams in D", out.Rows)
	}

	// SQL flavor of the same endpoint.
	res2, err := http.Get(ts.URL + "/api/v1/query?sql=" + strings.ReplaceAll("SELECT name FROM Teams WHERE continent = 'EU'", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var out2 struct {
		Rows [][]string `json:"rows"`
	}
	json.NewDecoder(res2.Body).Decode(&out2)
	if len(out2.Rows) != 3 {
		t.Errorf("sql rows = %v, want 3", out2.Rows)
	}
}

func TestServerBadRequests(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		body         interface{}
		wantStatus   int
	}{
		{"POST", "/api/v1/clean", map[string]string{}, http.StatusBadRequest},
		{"POST", "/api/v1/clean", map[string]string{"query": "not a query"}, http.StatusBadRequest},
		{"POST", "/api/v1/clean", map[string]string{"query": "(x) :- Teams(x, EU)", "sql": "SELECT 1"}, http.StatusBadRequest},
		{"POST", "/api/v1/questions/999/answer", Answer{None: true}, http.StatusNotFound},
		{"POST", "/api/v1/questions/abc/answer", Answer{}, http.StatusBadRequest},
		{"GET", "/api/v1/jobs/999", nil, http.StatusNotFound},
		{"GET", "/api/v1/jobs/abc", nil, http.StatusBadRequest},
		{"GET", "/api/v1/query", nil, http.StatusBadRequest},
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
		if res.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.path, res.StatusCode, c.wantStatus)
		}
		res.Body.Close()
	}
}

func TestServerMethodChecks(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := postJSON(t, ts.URL+"/api/v1/questions", nil)
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/questions status = %d", res.StatusCode)
	}
	res.Body.Close()
	res2, _ := http.Get(ts.URL + "/api/v1/clean")
	if res2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/v1/clean status = %d", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestServerIndexPage(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(res.Body)
	if !strings.Contains(buf.String(), "QOCO crowd console") {
		t.Errorf("index page missing console markup")
	}
	res404, _ := http.Get(ts.URL + "/nope")
	if res404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", res404.StatusCode)
	}
	res404.Body.Close()
}

// consoleFetch matches a fetch call in the crowd console's script: its URL
// expression and, when given, its method.
var consoleFetch = regexp.MustCompile(`fetch\(([^,)]*)(?:,\s*\{method:\s*'(\w+)')?`)

// consoleURL builds a fetch URL as the console script does: it joins the
// expression's string literals, with the question ID in place of id.
func consoleURL(t *testing.T, expr string, id int) string {
	t.Helper()
	var b strings.Builder
	for _, term := range strings.Split(expr, "+") {
		term = strings.TrimSpace(term)
		switch {
		case term == "id":
			b.WriteString(strconv.Itoa(id))
		case len(term) >= 2 && term[0] == '\'' && term[len(term)-1] == '\'':
			b.WriteString(term[1 : len(term)-1])
		default:
			t.Fatalf("console fetch URL term %q is neither a literal nor id", term)
		}
	}
	return b.String()
}

// TestConsoleUsesV1Routes sends the crowd console's two requests, built as
// its script builds them, to a server with one pending question: the list
// request returns the question and the answer request resolves it. The
// script fetches only versioned paths.
func TestConsoleUsesV1Routes(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	got := make(chan bool, 1)
	go func() { got <- srv.Queue().VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU")) }()
	qu := waitQuestion(t, srv.Queue(), 0)

	urls := make(map[string]string) // method -> URL
	for _, call := range consoleFetch.FindAllStringSubmatch(indexHTML, -1) {
		method := call[2]
		if method == "" {
			method = http.MethodGet
		}
		urls[method] = consoleURL(t, call[1], qu.ID)
		if !strings.HasPrefix(urls[method], "/api/v1/") {
			t.Errorf("console fetches %s %s outside /api/v1/", method, urls[method])
		}
	}
	if len(urls) != 2 || urls[http.MethodGet] == "" || urls[http.MethodPost] == "" {
		t.Fatalf("console fetches %v, want one GET and one POST", urls)
	}

	res, err := http.Get(ts.URL + urls[http.MethodGet])
	if err != nil {
		t.Fatal(err)
	}
	var qs []Question
	decodeBody(t, res, &qs)
	if len(qs) != 1 || qs[0].ID != qu.ID {
		t.Fatalf("console list = %+v, want question %d", qs, qu.ID)
	}
	res = postJSON(t, ts.URL+urls[http.MethodPost], map[string]bool{"bool": false})
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("console answer status = %d", res.StatusCode)
	}
	select {
	case v := <-got:
		if v {
			t.Errorf("asker got true; the console answered false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("console answer left the question pending")
	}
}

func TestQueueCloseUnblocks(t *testing.T) {
	q := NewQueue()
	done := make(chan bool)
	go func() {
		done <- q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU"))
	}()
	// Wait for the question to register, then close.
	deadline := time.Now().Add(5 * time.Second)
	for len(q.Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("question never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	select {
	case v := <-done:
		if !v {
			t.Errorf("closed queue answered false; the edit-free shutdown answer is true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("VerifyFact did not unblock on Close")
	}
	// Questions after Close resolve immediately with the same edit-free
	// answer.
	if !q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU")) {
		t.Errorf("post-Close question answered false")
	}
}

func TestQueueDoubleAnswerRejected(t *testing.T) {
	q := NewQueue()
	go q.VerifyFact(context.Background(), db.NewFact("Teams", "GER", "EU"))
	deadline := time.Now().Add(5 * time.Second)
	for len(q.Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("question never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	id := q.Pending()[0].ID
	yes := true
	if err := q.Answer(id, Answer{Bool: &yes}); err != nil {
		t.Fatalf("first Answer: %v", err)
	}
	if err := q.Answer(id, Answer{Bool: &yes}); err == nil {
		t.Errorf("second Answer accepted; want error")
	}
}
