package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bfdn"
)

// asyncGridBody builds a request body covering both algorithms, all three
// latency models, and heterogeneous fleets over two shared trees.
func asyncGridBody(seed, indexBase int64, points []string) string {
	return fmt.Sprintf(`{"seed":%d,"indexBase":%d,"points":[%s]}`,
		seed, indexBase, strings.Join(points, ","))
}

func asyncGridPoints() []string {
	var pts []string
	for _, tree := range []string{
		`"family":"random","n":300,"depth":10,"treeSeed":5`,
		`"family":"spider","n":150,"depth":15,"treeSeed":2`,
	} {
		for _, alg := range []string{"bfdn", "potential"} {
			for _, lat := range []string{"constant", "jitter:0.5", "pareto:2"} {
				pts = append(pts, fmt.Sprintf(`{%s,"speeds":[1,1,2],"algorithm":%q,"latency":%q}`,
					tree, alg, lat))
			}
		}
	}
	return pts
}

func TestAsyncSweepEndpoint(t *testing.T) {
	srv := New(Config{SweepWorkers: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pts := asyncGridPoints()
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", asyncGridBody(7, 0, pts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines, done := readSweepStream[bfdn.AsyncReport](t, bytes.NewReader(data))
	if len(lines) != len(pts) {
		t.Fatalf("got %d point lines, want %d", len(lines), len(pts))
	}
	for i, l := range lines {
		if l.Point != i || l.Error != "" || l.Report == nil {
			t.Fatalf("line %d: %+v", i, l)
		}
		if !l.Report.FullyExplored || !l.Report.AllAtRoot {
			t.Errorf("point %d: bad terminal state %+v", i, *l.Report)
		}
		if l.Report.Makespan < l.Report.Floor || l.Report.Floor <= 0 {
			t.Errorf("point %d: makespan %.2f vs floor %.2f", i, l.Report.Makespan, l.Report.Floor)
		}
		if len(l.Report.WorkDist) != 3 {
			t.Errorf("point %d: fleet size %d in work distribution", i, len(l.Report.WorkDist))
		}
	}
	if done == nil || done.Points != len(pts) || done.Workers != 3 {
		t.Fatalf("done line: %+v", done)
	}
}

// TestAsyncSweepWorkerInvariance is the daemon half of the determinism
// contract: the streamed JSONL body is byte-identical whatever SweepWorkers
// is set to.
func TestAsyncSweepWorkerInvariance(t *testing.T) {
	body := asyncGridBody(42, 0, asyncGridPoints())
	run := func(workers int) []byte {
		srv := New(Config{SweepWorkers: workers})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, data)
		}
		return data
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		// The done line carries worker count and throughput; only the point
		// lines must match byte for byte.
		trim := func(b []byte) []byte {
			i := bytes.LastIndexByte(bytes.TrimRight(b, "\n"), '\n')
			return b[:i+1]
		}
		if !bytes.Equal(trim(base), trim(got)) {
			t.Errorf("point lines differ between 1 and %d workers", workers)
		}
	}
}

// TestAsyncSweepIndexBase: running a tail shard with indexBase set to its
// first global index streams the same reports the full run streams.
func TestAsyncSweepIndexBase(t *testing.T) {
	srv := New(Config{SweepWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pts := asyncGridPoints()
	run := func(body string) []sweepLine[bfdn.AsyncReport] {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		lines, done := readSweepStream[bfdn.AsyncReport](t, bytes.NewReader(data))
		if done == nil {
			t.Fatal("no done line")
		}
		return lines
	}
	full := run(asyncGridBody(9, 0, pts))
	lo := len(pts) / 2
	shard := run(asyncGridBody(9, int64(lo), pts[lo:]))
	if len(shard) != len(pts)-lo {
		t.Fatalf("shard has %d lines, want %d", len(shard), len(pts)-lo)
	}
	for i, l := range shard {
		g := full[lo+i]
		if l.Report == nil || g.Report == nil {
			t.Fatalf("shard line %d: missing report", i)
		}
		if !reflect.DeepEqual(*l.Report, *g.Report) {
			t.Errorf("shard point %d: report %+v differs from full run %+v", i, *l.Report, *g.Report)
		}
	}
}

func TestAsyncSweepValidation(t *testing.T) {
	srv := New(Config{MaxPoints: 4, MaxNodes: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ok := `{"family":"path","n":10,"speeds":[1]}`
	cases := []struct {
		name, body string
	}{
		{"no points", `{"points":[]}`},
		{"too many points", fmt.Sprintf(`{"points":[%s,%s,%s,%s,%s]}`, ok, ok, ok, ok, ok)},
		{"negative indexBase", fmt.Sprintf(`{"indexBase":-1,"points":[%s]}`, ok)},
		{"empty fleet", `{"points":[{"family":"path","n":10,"speeds":[]}]}`},
		{"missing fleet", `{"points":[{"family":"path","n":10}]}`},
		{"sync-only algorithm", `{"points":[{"family":"path","n":10,"speeds":[1],"algorithm":"cte"}]}`},
		{"bad latency", `{"points":[{"family":"path","n":10,"speeds":[1],"latency":"warp:3"}]}`},
		{"bad family", `{"points":[{"family":"noSuchFamily","n":10,"speeds":[1]}]}`},
		{"n too large", `{"points":[{"family":"path","n":100000,"speeds":[1]}]}`},
		{"unknown field", `{"points":[{"family":"path","n":10,"speeds":[1],"k":3}]}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}

	// A fleet with a non-positive speed is a per-point failure: the stream
	// still runs and the bad point carries the error inline.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep",
		fmt.Sprintf(`{"points":[{"family":"path","n":10,"speeds":[0]},%s]}`, ok))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-point failure: status %d: %s", resp.StatusCode, data)
	}
	lines, done := readSweepStream[bfdn.AsyncReport](t, bytes.NewReader(data))
	if len(lines) != 2 || done == nil {
		t.Fatalf("got %d lines, done %v", len(lines), done)
	}
	if lines[0].Error == "" || lines[0].Report != nil {
		t.Errorf("bad point line: %+v", lines[0])
	}
	if lines[1].Error != "" || lines[1].Report == nil {
		t.Errorf("good point line: %+v", lines[1])
	}
}

// TestAsyncSweepMetrics: asyncsweep jobs land on the bfdnd_async_sweep_*
// families and leave the synchronous bfdnd_sweep_* families untouched.
func TestAsyncSweepMetrics(t *testing.T) {
	srv := New(Config{SweepWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pts := asyncGridPoints()[:4]
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/asyncsweep", asyncGridBody(3, 0, pts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := int(srv.m.asyncSweep.PointsTotal.Value()); got != len(pts) {
		t.Errorf("async PointsTotal = %d, want %d", got, len(pts))
	}
	if got := srv.m.sweep.PointsTotal.Value(); got != 0 {
		t.Errorf("sync PointsTotal = %d, want 0", got)
	}

	samples := scrape(t, ts.Client(), ts.URL)
	if v := sampleValue(t, samples, "bfdnd_async_sweep_points_total", ""); v != float64(len(pts)) {
		t.Errorf("bfdnd_async_sweep_points_total = %v, want %d", v, len(pts))
	}
	if v := sampleValue(t, samples, "bfdnd_async_sweep_point_duration_seconds_count", ""); v != float64(len(pts)) {
		t.Errorf("bfdnd_async_sweep_point_duration_seconds_count = %v, want %d", v, len(pts))
	}
	if v := sampleValue(t, samples, "bfdnd_requests_total", `endpoint="asyncsweep"`); v != 1 {
		t.Errorf(`bfdnd_requests_total{endpoint="asyncsweep"} = %v, want 1`, v)
	}
}
