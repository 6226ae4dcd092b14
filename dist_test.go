package bfdn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"bfdn"
	"bfdn/internal/server"
)

// distSpecs is a small mixed grid; the first point leaves Algorithm at its
// zero value to pin down the BFDN default.
func distSpecs() []bfdn.SweepSpec {
	return []bfdn.SweepSpec{
		{Family: bfdn.FamilyPath, N: 60, K: 2},
		{Family: bfdn.FamilyBinary, N: 63, K: 3, Algorithm: bfdn.CTE},
		{Family: bfdn.FamilySpider, N: 80, K: 4, Algorithm: bfdn.BFDNRecursive, Ell: 3},
		{Family: bfdn.FamilyRandom, N: 90, TreeSeed: 7, K: 1, Algorithm: bfdn.DFS},
		{Family: bfdn.FamilyComb, N: 64, K: 2, Algorithm: bfdn.Levelwise},
		{Family: bfdn.FamilyRandom, N: 90, TreeSeed: 8, K: 3, Algorithm: bfdn.BFDN},
	}
}

// localDistLines materializes the specs and runs them through the local
// sweep engine, serialized in the distributed line shape.
func localDistLines(t *testing.T, specs []bfdn.SweepSpec, seed int64) []bfdn.DistLine {
	t.Helper()
	points := make([]bfdn.SweepPoint, len(specs))
	for i, s := range specs {
		tr, err := bfdn.GenerateTree(s.Family, s.N, s.Depth, s.TreeSeed)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		points[i] = bfdn.SweepPoint{Tree: tr, K: s.K, Algorithm: s.Algorithm, Ell: s.Ell}
	}
	// A zero Algorithm in SweepPoint is invalid for the local engine; apply
	// the same default the spec path documents.
	for i := range points {
		if points[i].Algorithm == 0 {
			points[i].Algorithm = bfdn.BFDN
		}
	}
	results, _, err := bfdn.SweepContext(context.Background(), points, 2, seed)
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	lines := make([]bfdn.DistLine, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("local point %d: %v", i, r.Err)
		}
		b, err := json.Marshal(&r.Report)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = bfdn.DistLine{Point: i, Report: b}
	}
	return lines
}

func distJSONL(t *testing.T, lines []bfdn.DistLine) string {
	t.Helper()
	var b bytes.Buffer
	if err := bfdn.WriteDistJSONL(&b, lines); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSweepDistributedMatchesLocal(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(server.New(server.Config{MaxJobs: 2, SweepWorkers: 2}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	specs := distSpecs()
	const seed = 42

	var streamed []int
	lines, stats, err := bfdn.SweepDistributed(context.Background(), specs, urls, seed,
		bfdn.WithDistOnLine(func(l bfdn.DistLine) { streamed = append(streamed, l.Point) }))
	if err != nil {
		t.Fatalf("SweepDistributed: %v", err)
	}

	want := distJSONL(t, localDistLines(t, specs, seed))
	if got := distJSONL(t, lines); got != want {
		t.Fatalf("distributed output differs from local run\n got:\n%s\nwant:\n%s", got, want)
	}
	if stats.Points != len(specs) || stats.Workers != 2 || stats.Shards < 3 {
		t.Errorf("stats = %s, want %d points over 2 workers in ≥ 3 shards", stats, len(specs))
	}
	for i, p := range streamed {
		if p != i {
			t.Fatalf("OnLine emitted point %d at position %d", p, i)
		}
	}
	if s := stats.String(); s == "" {
		t.Error("empty stats string")
	}
}

func TestSweepDistributedNoWorkers(t *testing.T) {
	if _, _, err := bfdn.SweepDistributed(context.Background(), distSpecs(), nil, 1); err == nil {
		t.Fatal("SweepDistributed succeeded with no workers")
	}
}

// TestSweepDistributedNilOnLine: a nil WithDistOnLine callback streams
// nothing. The coordinator calls OnLine from its own goroutines, so a nil
// func wrapped in a non-nil one would crash the process on the first line.
func TestSweepDistributedNilOnLine(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{MaxJobs: 2, SweepWorkers: 2}).Handler())
	t.Cleanup(ts.Close)
	specs := distSpecs()
	lines, _, err := bfdn.SweepDistributed(context.Background(), specs, []string{ts.URL}, 5,
		bfdn.WithDistOnLine(nil))
	if err != nil {
		t.Fatalf("SweepDistributed: %v", err)
	}
	if got, want := distJSONL(t, lines), distJSONL(t, localDistLines(t, specs, 5)); got != want {
		t.Fatalf("distributed output differs from local run\n got:\n%s\nwant:\n%s", got, want)
	}
}
