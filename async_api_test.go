package bfdn_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"bfdn"
)

func asyncTestTree(t *testing.T) *bfdn.Tree {
	t.Helper()
	tr, err := bfdn.GenerateTree(bfdn.FamilyRandom, 500, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseAsyncAlgorithm(t *testing.T) {
	for _, a := range bfdn.AsyncAlgorithms() {
		got, err := bfdn.ParseAsyncAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAsyncAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if got, err := bfdn.ParseAsyncAlgorithm(""); err != nil || got != bfdn.AsyncBFDN {
		t.Errorf("empty name: %v, %v", got, err)
	}
	if _, err := bfdn.ParseAsyncAlgorithm("cte"); err == nil {
		t.Error("synchronous-only algorithm accepted")
	}
}

func TestExploreAsyncOptions(t *testing.T) {
	tr := asyncTestTree(t)
	speeds := []float64{1, 1, 2, 4}
	for _, alg := range bfdn.AsyncAlgorithms() {
		for _, lat := range []string{"", "constant", "jitter:0.5", "pareto:2"} {
			rep, err := bfdn.ExploreAsync(tr, speeds,
				bfdn.WithAsyncAlgorithm(alg), bfdn.WithLatencyModel(lat), bfdn.WithAsyncSeed(9))
			if err != nil {
				t.Fatalf("%v/%q: %v", alg, lat, err)
			}
			if !rep.FullyExplored || !rep.AllAtRoot {
				t.Errorf("%v/%q: bad terminal state %+v", alg, lat, rep)
			}
			if rep.Makespan < rep.Floor {
				t.Errorf("%v/%q: makespan %.2f below floor %.2f", alg, lat, rep.Makespan, rep.Floor)
			}
			if rep.Events <= 0 {
				t.Errorf("%v/%q: no events reported", alg, lat)
			}
		}
	}
	if _, err := bfdn.ExploreAsync(tr, speeds, bfdn.WithLatencyModel("warp:3")); err == nil {
		t.Error("bad latency spec accepted")
	}
	if _, err := bfdn.ExploreAsync(tr, nil); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestExploreAsyncContextCancel(t *testing.T) {
	tr := asyncTestTree(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bfdn.ExploreAsyncContext(ctx, tr, []float64{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func asyncSweepGrid(t *testing.T) []bfdn.AsyncSweepPoint {
	t.Helper()
	tr1 := asyncTestTree(t)
	tr2, err := bfdn.GenerateTree(bfdn.FamilySpider, 200, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	var points []bfdn.AsyncSweepPoint
	for _, tr := range []*bfdn.Tree{tr1, tr2} {
		for _, alg := range bfdn.AsyncAlgorithms() {
			for _, lat := range []string{"constant", "jitter:0.5", "pareto:2"} {
				points = append(points, bfdn.AsyncSweepPoint{
					Tree: tr, Speeds: []float64{1, 1, 2}, Algorithm: alg, Latency: lat,
				})
			}
		}
	}
	return points
}

func TestSweepAsyncWorkerInvariance(t *testing.T) {
	points := asyncSweepGrid(t)
	base, _, err := bfdn.SweepAsyncContext(context.Background(), points, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range base {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if !r.Report.FullyExplored || r.Report.Makespan < r.Report.Floor {
			t.Fatalf("point %d: bad report %+v", i, r.Report)
		}
	}
	for _, workers := range []int{2, 7} {
		got, _, err := bfdn.SweepAsyncContext(context.Background(), points, workers, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
	}
}

func TestSweepAsyncIndexBase(t *testing.T) {
	points := asyncSweepGrid(t)
	whole, _, err := bfdn.SweepAsyncContext(context.Background(), points, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(points) / 2
	shard, _, err := bfdn.SweepAsyncContext(context.Background(), points[cut:], 2, 11, bfdn.WithSeedIndexBase(uint64(cut)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole[cut:], shard) {
		t.Error("IndexBase shard differs from the unsharded run")
	}
}

func TestSweepAsyncValidation(t *testing.T) {
	tr := asyncTestTree(t)
	if _, _, err := bfdn.SweepAsyncContext(context.Background(), []bfdn.AsyncSweepPoint{{Tree: nil, Speeds: []float64{1}}}, 1, 1); err == nil {
		t.Error("nil tree accepted")
	}
	if _, _, err := bfdn.SweepAsyncContext(context.Background(), []bfdn.AsyncSweepPoint{
		{Tree: tr, Speeds: []float64{1}, Latency: "warp:2"},
	}, 1, 1); err == nil {
		t.Error("bad latency accepted")
	}
	if _, _, err := bfdn.SweepAsyncContext(context.Background(), []bfdn.AsyncSweepPoint{
		{Tree: tr, Speeds: []float64{1}, Algorithm: bfdn.AsyncAlgorithm(99)},
	}, 1, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Fleet problems are per-point, not up-front: other points still run.
	res, stats, err := bfdn.SweepAsyncContext(context.Background(), []bfdn.AsyncSweepPoint{
		{Tree: tr, Speeds: nil},
		{Tree: tr, Speeds: []float64{1}},
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[1].Err != nil {
		t.Errorf("per-point errors wrong: %v / %v", res[0].Err, res[1].Err)
	}
	if stats.Errors != 1 {
		t.Errorf("stats.Errors = %d, want 1", stats.Errors)
	}
}

func TestAsyncLowerBound(t *testing.T) {
	if got := bfdn.AsyncLowerBound(101, 5, []float64{1, 1}); got != 100 {
		t.Errorf("AsyncLowerBound = %v, want 100", got)
	}
}
