package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"bfdn/internal/obs"
	"bfdn/internal/tree"
)

func asyncGrid(t *testing.T) []AsyncPoint {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	trees := []*tree.Tree{
		tree.Path(40), tree.Spider(5, 8), tree.Comb(10, 4), tree.Random(300, 12, rng),
	}
	fleets := [][]float64{{1}, {1, 1, 1, 1}, {1, 2, 4}}
	lats := []string{"constant", "jitter:0.5", "pareto:2"}
	var points []AsyncPoint
	for ti, tr := range trees {
		for fi, fl := range fleets {
			for li, lat := range lats {
				points = append(points, AsyncPoint{
					Tree:      tr,
					Speeds:    fl,
					Algorithm: []string{"bfdn", "potential"}[(ti+fi+li)%2],
					Latency:   lat,
				})
			}
		}
	}
	return points
}

// TestRunAsyncWorkerCountInvariance is the tentpole determinism contract:
// the result slice is identical at any worker count, under any scheduling.
func TestRunAsyncWorkerCountInvariance(t *testing.T) {
	points := asyncGrid(t)
	base, _ := RunAsyncContext(context.Background(), points, Options{Workers: 1, BaseSeed: 42}, nil)
	if err := JoinErrors(base); err != nil {
		t.Fatal(err)
	}
	for _, r := range base {
		if !r.FullyExplored || !r.AllAtRoot {
			t.Fatalf("point %d bad terminal state: %+v", r.Point, r)
		}
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, _ := RunAsyncContext(context.Background(), points, Options{Workers: workers, BaseSeed: 42}, nil)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
	}
}

// TestRunAsyncIndexBaseSharding: splitting one grid into shards with
// IndexBase set to each shard's first global index reproduces the unsharded
// run exactly — the property the distributed coordinator relies on.
func TestRunAsyncIndexBaseSharding(t *testing.T) {
	points := asyncGrid(t)
	whole, _ := RunAsyncContext(context.Background(), points, Options{Workers: 4, BaseSeed: 97}, nil)
	cut := len(points) / 2
	left, _ := RunAsyncContext(context.Background(), points[:cut], Options{Workers: 3, BaseSeed: 97}, nil)
	right, _ := RunAsyncContext(context.Background(), points[cut:], Options{Workers: 2, BaseSeed: 97, IndexBase: uint64(cut)}, nil)
	for i, r := range left {
		if !reflect.DeepEqual(whole[i], r) {
			t.Fatalf("left shard point %d differs from unsharded run", i)
		}
	}
	for i, r := range right {
		want := whole[cut+i]
		want.Point = i // shard-local index
		if !reflect.DeepEqual(want, r) {
			t.Fatalf("right shard point %d differs from unsharded run", i)
		}
	}
}

// TestRunAsyncSeedMatters: under a random latency model the base seed
// changes the measured makespans.
func TestRunAsyncSeedMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := tree.Random(400, 10, rng)
	points := []AsyncPoint{{Tree: tr, Speeds: []float64{1, 1, 1}, Algorithm: "bfdn", Latency: "jitter:1"}}
	a, _ := RunAsyncContext(context.Background(), points, Options{BaseSeed: 1}, nil)
	b, _ := RunAsyncContext(context.Background(), points, Options{BaseSeed: 2}, nil)
	if a[0].Err != nil || b[0].Err != nil {
		t.Fatal(a[0].Err, b[0].Err)
	}
	if a[0].Makespan == b[0].Makespan {
		t.Errorf("different base seeds gave identical makespan %v", a[0].Makespan)
	}
}

// TestRunAsyncBadPoints: invalid points fail individually without
// disturbing their neighbours.
func TestRunAsyncBadPoints(t *testing.T) {
	tr := tree.Path(10)
	points := []AsyncPoint{
		{Tree: tr, Speeds: []float64{1}, Algorithm: "bfdn"},
		{Tree: nil, Speeds: []float64{1}, Algorithm: "bfdn"},
		{Tree: tr, Speeds: []float64{1}, Algorithm: "nope"},
		{Tree: tr, Speeds: []float64{1}, Algorithm: "bfdn", Latency: "warp:9"},
		{Tree: tr, Speeds: nil, Algorithm: "potential"},
		{Tree: tr, Speeds: []float64{2}, Algorithm: "potential"},
	}
	results, stats := RunAsyncContext(context.Background(), points, Options{Workers: 2}, nil)
	for _, i := range []int{0, 5} {
		if results[i].Err != nil {
			t.Errorf("point %d failed: %v", i, results[i].Err)
		}
	}
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Errorf("point %d accepted", i)
		}
	}
	if stats.Errors != 4 {
		t.Errorf("stats.Errors = %d, want 4", stats.Errors)
	}
	if JoinErrors(results) == nil {
		t.Error("JoinErrors = nil with failing points")
	}
}

// TestRunAsyncContextCancel: cancellation settles the remaining points with
// the context error and keeps finished results.
func TestRunAsyncContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tr := tree.Random(2000, 14, rng)
	var points []AsyncPoint
	for i := 0; i < 50; i++ {
		points = append(points, AsyncPoint{Tree: tr, Speeds: []float64{1, 1}, Algorithm: "bfdn"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	results, _ := RunAsyncContext(ctx, points, Options{Workers: 2}, func(r AsyncResult) {
		if done.Add(1) == 3 {
			cancel()
		}
	})
	canceled := 0
	for _, r := range results {
		if r.Err != nil {
			canceled++
		} else if !r.FullyExplored {
			t.Errorf("finished point %d not fully explored", r.Point)
		}
	}
	if canceled == 0 {
		t.Error("no point observed the cancellation")
	}
}

// TestRunAsyncRecorder: the async engine's signals land on a named recorder
// without touching the synchronous families.
func TestRunAsyncRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewNamedRecorder(reg, "bfdnd_async_sweep")
	points := asyncGrid(t)[:6]
	_, stats := RunAsyncContext(context.Background(), points, Options{Workers: 2, Recorder: rec}, nil)
	if got := int(rec.PointsTotal.Value()); got != len(points) {
		t.Errorf("PointsTotal = %d, want %d", got, len(points))
	}
	if rec.BusySeconds.Value() <= 0 {
		t.Error("BusySeconds not accumulated")
	}
	if stats.Points != len(points) || stats.Workers != 2 {
		t.Errorf("stats = %+v", stats)
	}
}
