package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfdn"
	"bfdn/internal/dsweep"
)

// rawLines reads a JSONL body into its raw lines, preserving bytes exactly —
// the resume tests compare streams byte-for-byte, which readSweepStream's
// decode/re-encode round trip would launder.
func rawLines(t *testing.T, body io.Reader) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

func storedServer(t *testing.T) (*httptest.Server, *bfdn.JobStore) {
	t.Helper()
	js, err := bfdn.OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: js, SweepWorkers: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, js
}

// TestSweepResumeRoundTrip is the HTTP face of the crash-recovery contract:
// a journaled sweep resumed through POST /v1/resume — or simply resubmitted,
// since the job key is the content-addressed plan — streams point lines
// byte-identical to the original run without re-simulating anything.
func TestSweepResumeRoundTrip(t *testing.T) {
	ts, _ := storedServer(t)
	body := `{"seed":11,"points":[
		{"family":"random","n":300,"depth":8,"treeSeed":1,"k":2,"algorithm":"bfdn"},
		{"family":"comb","n":200,"depth":6,"treeSeed":2,"k":3,"algorithm":"cte"},
		{"family":"random","n":300,"depth":8,"treeSeed":1,"k":4,"algorithm":"potential"},
		{"family":"spider","n":150,"depth":10,"treeSeed":3,"k":2,"algorithm":"bfdn"}]}`

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, data)
	}
	first := rawLines(t, bytes.NewReader(data))
	if len(first) != 5 {
		t.Fatalf("first run: %d lines, want 4 points + done", len(first))
	}

	// The journal now holds the whole job.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/jobs: status %d, want 405", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jr jobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jr.Jobs) != 1 || jr.Jobs[0].Kind != "sweep" || !jr.Jobs[0].Done || jr.Jobs[0].Records != 4 {
		t.Fatalf("jobs listing: %+v", jr.Jobs)
	}

	// Resume by ID: byte-identical point lines, zero points simulated.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/resume",
		`{"job":"`+jr.Jobs[0].ID+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, data)
	}
	resumed := rawLines(t, bytes.NewReader(data))
	if len(resumed) != 5 {
		t.Fatalf("resume: %d lines, want 5", len(resumed))
	}
	for i := 0; i < 4; i++ {
		if resumed[i] != first[i] {
			t.Errorf("resume line %d differs:\n  first:   %s\n  resumed: %s", i, first[i], resumed[i])
		}
	}
	var done sweepLine[bfdn.Report]
	if err := json.Unmarshal([]byte(resumed[4]), &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Points != 0 {
		t.Fatalf("resume done line %+v: want Done with 0 simulated points", done)
	}

	// Resubmitting the identical request is the same job, so it replays too.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, data)
	}
	again := rawLines(t, bytes.NewReader(data))
	for i := 0; i < 4; i++ {
		if again[i] != first[i] {
			t.Errorf("resubmit line %d differs from original", i)
		}
	}

	// The durability counters saw the journal writes and both replays.
	samples := scrape(t, ts.Client(), ts.URL)
	if v := sampleValue(t, samples, "bfdnd_jobstore_wal_appends_total", ""); v < 4 {
		t.Errorf("wal appends = %v, want ≥ 4", v)
	}
	if v := sampleValue(t, samples, "bfdnd_jobstore_resumes_total", ""); v != 1 {
		t.Errorf("resumes = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "bfdnd_jobstore_replayed_points_total", ""); v != 8 {
		t.Errorf("replayed points = %v, want 8 (resume + resubmit)", v)
	}
}

// TestAsyncSweepResumeRoundTrip mirrors the synchronous round trip on the
// continuous-time engine and POST /v1/asyncsweep.
func TestAsyncSweepResumeRoundTrip(t *testing.T) {
	ts, _ := storedServer(t)
	body := `{"seed":7,"points":[
		{"family":"random","n":200,"depth":8,"treeSeed":4,"speeds":[1,0.5],"algorithm":"bfdn","latency":"jitter:0.3"},
		{"family":"comb","n":150,"depth":6,"treeSeed":5,"speeds":[1,1,2],"algorithm":"potential","latency":"pareto:2.5"}]}`

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("asyncsweep: status %d: %s", resp.StatusCode, data)
	}
	first := rawLines(t, bytes.NewReader(data))
	if len(first) != 3 {
		t.Fatalf("first run: %d lines, want 2 points + done", len(first))
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jr jobsResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jr.Jobs) != 1 || jr.Jobs[0].Kind != "asyncsweep" || !jr.Jobs[0].Done {
		t.Fatalf("jobs listing: %+v", jr.Jobs)
	}

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/resume",
		`{"job":"`+jr.Jobs[0].ID+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, data)
	}
	resumed := rawLines(t, bytes.NewReader(data))
	if len(resumed) != 3 {
		t.Fatalf("resume: %d lines, want 3", len(resumed))
	}
	for i := 0; i < 2; i++ {
		if resumed[i] != first[i] {
			t.Errorf("resume line %d differs:\n  first:   %s\n  resumed: %s", i, first[i], resumed[i])
		}
	}
}

// TestJobEndpointsWithoutStore pins the 404-when-unconfigured contract the
// OPERATIONS.md runbook documents.
func TestJobEndpointsWithoutStore(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{"job":"deadbeef"}`)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "-store") {
		t.Errorf("resume without store: status %d, body %s", resp.StatusCode, data)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("jobs without store: status %d, want 404", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/register", `{"url":"http://w1"}`)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "registry") {
		t.Errorf("register without registry: status %d, body %s", resp.StatusCode, data)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("workers without registry: status %d, want 404", resp.StatusCode)
	}
}

// TestResumeRejections covers the refusal arms of POST /v1/resume: unknown
// jobs, kinds that resume elsewhere, and manifests whose plan this daemon
// did not write.
func TestResumeRejections(t *testing.T) {
	ts, js := storedServer(t)

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty job: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{"job":"0000000000000000"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// An explore job (created by the facade, resumed by re-running it with
	// WithCheckpoint) is not resumable over HTTP.
	job, _, err := js.Store().OpenOrCreate("explore", []byte(`{"fp":"1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{"job":"`+job.ID()+`"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "WithCheckpoint") {
		t.Errorf("explore job: status %d, body %s", resp.StatusCode, data)
	}

	// A sweep job whose plan is a facade fingerprint, not this daemon's
	// canonical request re-marshal, must be refused by the strict decode.
	job, _, err = js.Store().OpenOrCreate("sweep", []byte(`{"fingerprint":"abc123"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{"job":"`+job.ID()+`"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "no resumable plan") {
		t.Errorf("fingerprint plan: status %d, body %s", resp.StatusCode, data)
	}
}

// TestRegistryEndpoints exercises the worker-registration routes against a
// configured registry: heartbeat, fleet listing, and method discipline.
func TestRegistryEndpoints(t *testing.T) {
	srv := New(Config{Registry: dsweep.NewRegistry(time.Minute)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/register",
		`{"url":"http://w1:9001","peers":["http://w2:9001"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var wr struct {
		Workers []string `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wr.Workers) != 2 {
		t.Fatalf("workers after register: %v, want w1 + gossiped w2", wr.Workers)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/register")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/register: status %d, want 405", resp.StatusCode)
	}
}

// TestResumeRefusesNonCanonicalPlan: a stored sweep plan that decodes but is
// not this daemon's canonical re-marshal (here its keys are reordered) does
// not hash to the job's ID. Re-driving it would journal under a different
// job, so POST /v1/resume must refuse it and create no job.
func TestResumeRefusesNonCanonicalPlan(t *testing.T) {
	ts, js := storedServer(t)
	job, _, err := js.Store().OpenOrCreate("sweep", []byte(
		`{"indexBase":0,"seed":3,"points":[{"family":"path","n":20,"depth":0,"treeSeed":0,"k":2,"algorithm":"bfdn","ell":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/resume", `{"job":"`+job.ID()+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-canonical plan: status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID() {
		t.Errorf("store after refused resume = %+v, want only job %s", jobs, job.ID())
	}
}

// TestJobsEndpointListsCorruptJob: GET /v1/jobs answers 200 with every job
// when one job's WAL is corrupt before its tail; that job's row carries
// the replay error, and a healthy row has no error field.
func TestJobsEndpointListsCorruptJob(t *testing.T) {
	ts, js := storedServer(t)
	good, _, err := js.Store().OpenOrCreate("sweep", []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := js.Store().OpenOrCreate("sweep", []byte(`{"a":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Append(json.RawMessage(`{"t":"point"}`)); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(js.Store().Dir(), "jobs", bad.ID(), "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage\n{\"t\":\"point\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d, body %s, %v", resp.StatusCode, data, err)
	}
	var body struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2: %s", len(body.Jobs), data)
	}
	for _, row := range body.Jobs {
		msg, has := row["error"]
		switch row["job"] {
		case good.ID():
			if has {
				t.Errorf("healthy job's row has an error field: %v", row)
			}
		case bad.ID():
			if want := "jobstore: corrupt WAL record 1 in job " + bad.ID(); msg != want {
				t.Errorf("corrupt job's error = %v, want %q", msg, want)
			}
		default:
			t.Errorf("unexpected row %v", row)
		}
	}
}
