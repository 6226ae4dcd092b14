package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bfdn"
)

func postJSON(t *testing.T, client *http.Client, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestExploreEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, alg := range bfdn.AlgorithmNames() {
		body := fmt.Sprintf(`{"family":"random","n":500,"depth":12,"treeSeed":7,"k":6,"algorithm":%q}`, alg)
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, resp.StatusCode, data)
		}
		var out exploreResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: bad JSON: %v", alg, err)
		}
		if out.Algorithm != alg || out.K != 6 || out.Report == nil {
			t.Fatalf("%s: bad response %s", alg, data)
		}
		if !out.Report.FullyExplored {
			t.Errorf("%s: run incomplete", alg)
		}
		// Every algorithm has a closed-form guarantee — including CTE,
		// whose bound the facade used to drop as 0.
		if out.Report.Bound <= 0 {
			t.Errorf("%s: Bound = %v, want > 0", alg, out.Report.Bound)
		}
	}
}

func TestExploreWithParentArray(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A 4-node star given explicitly.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"parents":[-1,0,0,0],"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out exploreResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 4 || out.Depth != 1 {
		t.Fatalf("parent-array tree mis-built: %s", data)
	}
}

func TestExploreValidation(t *testing.T) {
	srv := New(Config{MaxNodes: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"bad JSON", `{`},
		{"unknown field", `{"familly":"random"}`},
		{"k missing", `{"family":"random","n":100,"depth":5}`},
		{"bad algorithm", `{"family":"random","n":100,"depth":5,"k":2,"algorithm":"astar"}`},
		{"bad family", `{"family":"noSuchFamily","n":100,"depth":5,"k":2}`},
		{"n too large", `{"family":"random","n":100000,"depth":5,"k":2}`},
		{"n too small", `{"family":"random","n":0,"depth":5,"k":2}`},
		{"ell too large", `{"family":"path","n":10,"k":2,"algorithm":"bfdnl","ell":63}`},
		{"ell negative", `{"family":"path","n":10,"k":2,"algorithm":"bfdnl","ell":-1}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explore: status %d, want 405", resp.StatusCode)
	}
}

// TestMaxNodesBoundsDepthAndRobots: the generators grow with depth and a
// world with its robots, so -maxnodes bounds both on every endpoint, and a
// request within the limits still runs.
func TestMaxNodesBoundsDepthAndRobots(t *testing.T) {
	srv := New(Config{MaxNodes: 100})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"explore spider depth", "/v1/explore", `{"family":"spider","n":1,"depth":5000,"k":2}`, http.StatusBadRequest},
		{"explore caterpillar depth", "/v1/explore", `{"family":"caterpillar","n":1,"depth":5000,"k":2}`, http.StatusBadRequest},
		{"explore uneven depth", "/v1/explore", `{"family":"uneven","n":1,"depth":5000,"k":2}`, http.StatusBadRequest},
		{"explore k", "/v1/explore", `{"family":"path","n":10,"k":100000}`, http.StatusBadRequest},
		{"explore within limits", "/v1/explore", `{"family":"spider","n":50,"depth":10,"k":100}`, http.StatusOK},
		{"sweep comb depth", "/v1/sweep", `{"points":[{"family":"path","n":10,"k":1},{"family":"comb","n":1,"depth":6000,"k":2}]}`, http.StatusBadRequest},
		{"sweep broom depth", "/v1/sweep", `{"points":[{"family":"broom","n":1,"depth":5000,"k":2}]}`, http.StatusBadRequest},
		{"sweep k", "/v1/sweep", `{"points":[{"family":"path","n":10,"k":100000}]}`, http.StatusBadRequest},
		{"sweep within limits", "/v1/sweep", `{"points":[{"family":"comb","n":60,"depth":100,"k":100}]}`, http.StatusOK},
		{"asyncsweep depth", "/v1/asyncsweep", `{"points":[{"family":"spider","n":1,"depth":5000,"speeds":[1]}]}`, http.StatusBadRequest},
		{"asyncsweep speeds", "/v1/asyncsweep", fmt.Sprintf(`{"points":[{"family":"path","n":10,"speeds":[%s]}]}`, strings.Repeat("1,", 100)+"1"), http.StatusBadRequest},
		{"asyncsweep within limits", "/v1/asyncsweep", fmt.Sprintf(`{"points":[{"family":"path","n":10,"depth":100,"speeds":[%s]}]}`, strings.Repeat("1,", 99)+"1"), http.StatusOK},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%.200s)", tc.name, resp.StatusCode, tc.want, data)
		}
	}
}

// readSweepStream consumes a JSONL sweep response of either engine,
// returning point lines and the final done line.
func readSweepStream[Rep any](t *testing.T, body io.Reader) (points []sweepLine[Rep], done *sweepLine[Rep]) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line sweepLine[Rep]
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if line.Done {
			d := line
			done = &d
			continue
		}
		points = append(points, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return points, done
}

// TestServerUnderLoad is the acceptance scenario: ≥64 concurrent explore
// requests racing one streamed sweep, then a canceled in-flight sweep whose
// workers must stop promptly, then a drain.
func TestServerUnderLoad(t *testing.T) {
	srv := New(Config{MaxJobs: 8, QueueDepth: 4096, SweepWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: 64 concurrent explores plus one streamed sweep.
	algs := bfdn.AlgorithmNames()
	var wg sync.WaitGroup
	errs := make(chan error, 65)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"family":"random","n":400,"depth":10,"treeSeed":%d,"k":%d,"algorithm":%q}`,
				i, 1+i%8, algs[i%len(algs)])
			resp, err := ts.Client().Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("explore %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var out exploreResponse
			if err := json.Unmarshal(data, &out); err != nil {
				errs <- fmt.Errorf("explore %d: %v", i, err)
				return
			}
			if !out.Report.FullyExplored || out.Report.Bound <= 0 {
				errs <- fmt.Errorf("explore %d: bad report %+v", i, out.Report)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pts []string
		for i := 0; i < 24; i++ {
			pts = append(pts, fmt.Sprintf(`{"family":"comb","n":300,"depth":8,"treeSeed":3,"k":%d,"algorithm":%q}`,
				1+i%6, algs[i%len(algs)]))
		}
		body := fmt.Sprintf(`{"seed":5,"points":[%s]}`, strings.Join(pts, ","))
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			errs <- fmt.Errorf("sweep: status %d: %s", resp.StatusCode, data)
			return
		}
		lines, doneLine := readSweepStream[bfdn.Report](t, resp.Body)
		if len(lines) != 24 {
			errs <- fmt.Errorf("sweep: %d point lines, want 24", len(lines))
			return
		}
		for i, l := range lines {
			// Streaming is strictly in point order regardless of which
			// worker finished first.
			if l.Point != i {
				errs <- fmt.Errorf("sweep: line %d has point %d — stream out of order", i, l.Point)
				return
			}
			if l.Error != "" || l.Report == nil || !l.Report.FullyExplored {
				errs <- fmt.Errorf("sweep point %d: %+v", i, l)
				return
			}
		}
		if doneLine == nil || doneLine.Points != 24 {
			errs <- fmt.Errorf("sweep: missing or wrong done line: %+v", doneLine)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: cancel an in-flight sweep; sweep.RunContext must hand the
	// worker pool back within one simulated round per worker.
	var pts []string
	for i := 0; i < 64; i++ {
		pts = append(pts, `{"family":"path","n":100000,"k":1,"algorithm":"dfs"}`)
	}
	body := fmt.Sprintf(`{"seed":1,"points":[%s]}`, strings.Join(pts, ","))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first streamed line so the sweep is provably in flight,
	// then abandon the request.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first sweep line: %v", err)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled sweep still running after 5s (inflight=%d)", srv.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: with the server idle, a SIGTERM-style drain completes
	// immediately and later requests are refused.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp2, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"random","n":100,"depth":5,"treeSeed":1,"k":2}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain explore: status %d: %s", resp2.StatusCode, data)
	}
}

func TestQueueOverflowReturns429(t *testing.T) {
	srv := New(Config{MaxJobs: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.testJobStart = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	do := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/explore", "application/json",
			strings.NewReader(`{"family":"random","n":200,"depth":5,"treeSeed":1,"k":2}`))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go do() // occupies the only slot, parked in the test hook
	<-started
	go do() // occupies the only queue position
	waitQueue := time.Now().Add(2 * time.Second)
	for srv.queued.Load() != 1 {
		if time.Now().After(waitQueue) {
			t.Fatal("second request never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Slot busy, queue full: the third request must bounce with 429 now.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"random","n":200,"depth":5,"treeSeed":1,"k":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", resp.StatusCode, data)
	}

	close(release) // let the held and queued jobs run to completion
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", code)
		}
	}
}

func TestShutdownDrainsInFlightWork(t *testing.T) {
	srv := New(Config{MaxJobs: 2, QueueDepth: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.testJobStart = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/explore", "application/json",
			strings.NewReader(`{"family":"random","n":300,"depth":8,"treeSeed":2,"k":3}`))
		if err != nil {
			code <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-started // the job is in flight, parked in the hook

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	waitDrain := time.Now().Add(2 * time.Second)
	for !srv.Draining() {
		if time.Now().After(waitDrain) {
			t.Fatal("Shutdown never flipped the server into draining")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// While draining: new jobs are refused, health reports draining, and
	// Shutdown must still be blocked on the in-flight job.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"random","n":100,"depth":5,"treeSeed":1,"k":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, hdata := func() (*http.Response, []byte) {
		r, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		d, _ := io.ReadAll(r.Body)
		return r, d
	}()
	if hresp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hdata, []byte("draining")) {
		t.Fatalf("healthz while draining: %d %s", hresp.StatusCode, hdata)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a job was still in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown after release: %v", err)
	}
	if c := <-code; c != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200 — drain did not preserve it", c)
	}
}

func TestHealthzAndPprof(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"random","n":200,"depth":6,"treeSeed":1,"k":2}`)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Served < 1 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	presp, err := ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", presp.StatusCode)
	}
}

func TestCapacityEndpoint(t *testing.T) {
	srv := New(Config{MaxJobs: 3, QueueDepth: 7, SweepWorkers: 2, MaxPoints: 500, MaxNodes: 9000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() capacityResponse {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/capacity")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("capacity: status %d", resp.StatusCode)
		}
		var c capacityResponse
		if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := get()
	want := capacityResponse{MaxJobs: 3, QueueDepth: 7, SweepWorkers: 2, MaxPoints: 500, MaxNodes: 9000}
	if c != want {
		t.Fatalf("capacity = %+v, want %+v", c, want)
	}

	// While draining the endpoint stays up (200) but flags it, so a
	// coordinator can stop dispatching without treating the worker as dead.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if c := get(); !c.Draining {
		t.Fatalf("capacity while draining = %+v, want Draining", c)
	}
}

// TestSweepIndexBase is the sharding contract the distributed coordinator
// relies on: running [lo,hi) of a grid with indexBase=lo must stream the
// same reports the full run streams for those points.
func TestSweepIndexBase(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	point := func(i int) string {
		return fmt.Sprintf(`{"family":"random","n":300,"depth":8,"treeSeed":4,"k":%d,"algorithm":"bfdn"}`, 1+i%5)
	}
	var all []string
	for i := 0; i < 12; i++ {
		all = append(all, point(i))
	}
	run := func(body string) []sweepLine[bfdn.Report] {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: status %d: %s", resp.StatusCode, data)
		}
		lines, done := readSweepStream[bfdn.Report](t, bytes.NewReader(data))
		if done == nil {
			t.Fatal("sweep: no done line")
		}
		return lines
	}
	full := run(fmt.Sprintf(`{"seed":9,"points":[%s]}`, strings.Join(all, ",")))
	lo, hi := 5, 12
	shard := run(fmt.Sprintf(`{"seed":9,"indexBase":%d,"points":[%s]}`, lo, strings.Join(all[lo:hi], ",")))
	if len(full) != 12 || len(shard) != hi-lo {
		t.Fatalf("line counts: full %d, shard %d", len(full), len(shard))
	}
	for i, l := range shard {
		g := full[lo+i]
		if l.Report == nil || g.Report == nil {
			t.Fatalf("shard line %d: missing report (%+v / %+v)", i, l, g)
		}
		if *l.Report != *g.Report {
			t.Errorf("shard point %d: report %+v differs from full run %+v", i, *l.Report, *g.Report)
		}
	}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/sweep",
		`{"indexBase":-1,"points":[{"family":"path","n":10,"k":1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative indexBase: status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

func TestSweepValidation(t *testing.T) {
	srv := New(Config{MaxPoints: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name, body string
	}{
		{"no points", `{"points":[]}`},
		{"too many points", `{"points":[{"family":"path","n":10,"k":1},{"family":"path","n":10,"k":1},{"family":"path","n":10,"k":1},{"family":"path","n":10,"k":1},{"family":"path","n":10,"k":1}]}`},
		{"bad k", `{"points":[{"family":"path","n":10,"k":0}]}`},
		{"bad algorithm", `{"points":[{"family":"path","n":10,"k":1,"algorithm":"nope"}]}`},
		{"bad ell", `{"points":[{"family":"path","n":10,"k":1,"algorithm":"bfdnl","ell":-1}]}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}
}
