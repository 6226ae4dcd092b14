package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bfdn"
	"bfdn/internal/server"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	c := config{workload: workload, seed: seed, window: 300 * time.Millisecond, trace: trace,
		dir: t.TempDir(), threads: 2, size: tinySize}
	res, det, err := run(c)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v %d of %d failed: %v",
			workload, seed, trace, res.Correct, res.Failed, res.Attempted, det.Errors)
	}
	return res
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricEmitted runs every workload at tiny size, timed and
// traced, with two seeds: each run passes the gate and emits exactly the
// metrics BENCHMARK.json names, with their units, and the seed changes the
// inputs but not the metric names.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program workloads %v", names, workloadNames())
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			var first []string
			for _, seed := range []int64{1, 2} {
				res := tinyRun(t, w, seed, trace)
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("%s trace %v seed %d: metric %s missing", w, trace, seed, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics emitted, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
				}
				if first == nil {
					first = metricNames(res.Metrics)
				} else if got := metricNames(res.Metrics); !reflect.DeepEqual(got, first) {
					t.Errorf("%s trace %v: seed 2 emits %v, seed 1 %v", w, trace, got, first)
				}
			}
		}
	}
}

// TestSeedChangesInputs checks that each workload's inputs follow the seed.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		var inputs []layerInputs
		for _, seed := range []int64{1, 2} {
			c := config{workload: w.name, seed: seed, threads: 2, size: tinySize}
			inst, err := w.setup(c, t.TempDir(), &gate{})
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, inst.layers())
			inst.close()
		}
		a, b := inputs[0], inputs[1]
		a.seed, b.seed = 0, 0
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w.name)
		}
	}
}

// TestCorruptedLineTripsGate feeds a real bfdnd sweep stream through the
// correctness gate, intact and with one line corrupted three ways.
func TestCorruptedLineTripsGate(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{MaxJobs: 1, SweepWorkers: 1}).Handler())
	defer ts.Close()
	body := sweepBody{Seed: 7, Points: []pointSpec{
		{genSpec: genSpec{Family: "random", N: 200, Depth: 10, Seed: 3}, K: 4, Algorithm: "bfdn"},
		{genSpec: genSpec{Family: "comb", N: 150, Depth: 8}, K: 2, Algorithm: "cte"},
		{genSpec: genSpec{Family: "random", N: 300, Depth: 12, Seed: 5}, K: 8},
	}}
	resp, err := post(context.Background(), ts.Client(), ts.URL+"/v1/sweep", body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var cache treeCache
	pts, err := cache.sweepPoints(body.Points)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sweepReports(context.Background(), pts, 2, body.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reportsHash(reports)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(b []byte) (*gate, [32]byte) {
		g := &gate{}
		res, err := readStream(bytes.NewReader(b), len(body.Points), func(i int, raw json.RawMessage) error {
			return checkSyncLine(raw, algName(body.Points[i].Algorithm))
		})
		if g.check(err) {
			g.checkf(res.hash == want, "stream differs from the in-process reference")
		}
		return g, res.hash
	}
	if g, _ := verify(stream); g.failed.Load() != 0 {
		t.Fatalf("intact stream fails the gate: %v", g.errors())
	}

	lines := strings.SplitAfter(string(stream), "\n")
	corrupt := func(name string, edit func(line string) string) {
		t.Helper()
		c := append([]string(nil), lines...)
		c[1] = edit(c[1])
		if g, _ := verify([]byte(strings.Join(c, ""))); g.failed.Load() == 0 {
			t.Errorf("%s: corrupted line %q passes the gate", name, c[1])
		}
	}
	corrupt("report flag", func(l string) string { return strings.Replace(l, `"allAtRoot":true`, `"allAtRoot":false`, 1) })
	corrupt("report value", func(l string) string { return strings.Replace(l, `"moves":`, `"moves":1`, 1) })
	corrupt("truncated", func(l string) string { return l[:len(l)/2] + "\n" })
	corrupt("reordered", func(l string) string { return strings.Replace(l, `"point":1`, `"point":2`, 1) })
}

// TestTailPercentile pins the tail rule: the highest percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tailPercentile(xs); p != 90 || v != 90 {
		t.Errorf("100 samples: got p%.0f = %v, want p90 = 90", p, v)
	}
	if p, v := tailPercentile(xs[:8]); p != 100 || v != 8 {
		t.Errorf("8 samples: got p%.0f = %v, want the maximum", p, v)
	}
}

// TestReportsHashMatchesDistLines pins the two reference serializations:
// the daemon's point lines and the coordinator's merged lines carry the
// same report bytes.
func TestReportsHashMatchesDistLines(t *testing.T) {
	reports := []bfdn.Report{{Rounds: 3, Moves: 8, EdgeExplorations: 4, Bound: 9.5, FullyExplored: true, AllAtRoot: true}}
	lines, err := localDistLines(reports)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := bfdn.WriteDistJSONL(&b, lines); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(pointLine{Point: 0, Report: &reports[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(line)+"\n" {
		t.Errorf("coordinator line %q, daemon line %q", got, line)
	}
}
