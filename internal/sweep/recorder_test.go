package sweep

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"bfdn/internal/obs"
	"bfdn/internal/offline"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func dfsPoints(t *testing.T, n, count int) []Point {
	t.Helper()
	tr, err := tree.Generate(tree.FamilyRandom, n, 10, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, count)
	for i := range pts {
		pts[i] = Point{Tree: tr, K: 2, NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
			return &offline.DFS{}
		}}
	}
	return pts
}

// TestStatsInvariants pins the Stats contract: utilization is a fraction,
// throughput is non-negative, and the whole bundle agrees with an attached
// Recorder.
func TestStatsInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(reg)
	pts := dfsPoints(t, 300, 16)
	results, stats := Run(pts, Options{Workers: 4, BaseSeed: 1, Recorder: rec})
	if err := JoinErrors(results); err != nil {
		t.Fatal(err)
	}
	if stats.Utilization < 0 || stats.Utilization > 1 {
		t.Errorf("Utilization = %v, want within [0, 1]", stats.Utilization)
	}
	if stats.PointsPerSec < 0 {
		t.Errorf("PointsPerSec = %v, want ≥ 0", stats.PointsPerSec)
	}
	if stats.Points != 16 || stats.Errors != 0 {
		t.Errorf("Points/Errors = %d/%d, want 16/0", stats.Points, stats.Errors)
	}

	// The recorder sees exactly what Stats reports.
	if got := rec.PointsTotal.Value(); got != 16 {
		t.Errorf("recorder points = %d, want 16", got)
	}
	if got := rec.PointDuration.Count(); got != 16 {
		t.Errorf("recorder duration samples = %d, want 16", got)
	}
	if got := rec.QueueWait.Count(); got != 16 {
		t.Errorf("recorder queue-wait samples = %d, want 16", got)
	}
	if rec.ErrorsTotal.Value() != 0 {
		t.Errorf("recorder errors = %d, want 0", rec.ErrorsTotal.Value())
	}
}

// TestStatsZeroPoints pins the degenerate sweep: no division by zero, sane
// zero values.
func TestStatsZeroPoints(t *testing.T) {
	results, stats := Run(nil, Options{Workers: 4})
	if len(results) != 0 {
		t.Fatalf("got %d results for empty sweep", len(results))
	}
	if stats.PointsPerSec != 0 || stats.Utilization != 0 || stats.Errors != 0 {
		t.Fatalf("empty sweep stats not zero: %+v", stats)
	}
}

// TestRecorderSharedAcrossConcurrentSweeps is the last-write-wins
// regression test: several sweeps run concurrently against one Recorder and
// every total must come out exact — the old expvar points-per-second gauge
// would have kept only the last writer's value.
func TestRecorderSharedAcrossConcurrentSweeps(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(reg)
	const sweeps, perSweep = 4, 12
	var wg sync.WaitGroup
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pts := dfsPoints(t, 200, perSweep)
			results, stats := RunContext(context.Background(), pts,
				Options{Workers: 2, BaseSeed: uint64(s), Recorder: rec}, nil)
			if err := JoinErrors(results); err != nil {
				t.Error(err)
			}
			if stats.Errors != 0 {
				t.Errorf("sweep %d: %d errors", s, stats.Errors)
			}
		}(s)
	}
	wg.Wait()

	const want = sweeps * perSweep
	if got := rec.PointsTotal.Value(); got != want {
		t.Errorf("shared points total = %d, want %d", got, want)
	}
	if got := rec.PointDuration.Count(); got != want {
		t.Errorf("shared duration count = %d, want %d", got, want)
	}
	if got := rec.QueueWait.Count(); got != want {
		t.Errorf("shared queue-wait count = %d, want %d", got, want)
	}
	if rec.BusySeconds.Value() < 0 {
		t.Errorf("busy seconds negative: %v", rec.BusySeconds.Value())
	}
	if sum := rec.PointDuration.Sum(); sum < 0 {
		t.Errorf("duration sum negative: %v", sum)
	}
}

// TestRecorderCountsErrorsAndCancellations verifies failed and canceled
// points both land in the totals with ErrorsTotal raised.
func TestRecorderCountsErrorsAndCancellations(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder(reg)
	pts := dfsPoints(t, 100, 3)
	pts[1].Tree = nil // fails at execution
	results, stats := Run(pts, Options{Workers: 1, Recorder: rec})
	if results[1].Err == nil {
		t.Fatal("nil-tree point did not fail")
	}
	if stats.Errors != 1 || rec.ErrorsTotal.Value() != 1 {
		t.Errorf("errors = %d (stats) / %d (recorder), want 1/1", stats.Errors, rec.ErrorsTotal.Value())
	}
	if rec.PointsTotal.Value() != 3 {
		t.Errorf("points total = %d, want 3", rec.PointsTotal.Value())
	}

	// Pre-canceled context: every point settles as an error and is counted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats = RunContext(ctx, dfsPoints(t, 100, 5), Options{Workers: 2, Recorder: rec}, nil)
	if stats.Errors != 5 {
		t.Errorf("canceled sweep errors = %d, want 5", stats.Errors)
	}
	if got := rec.PointsTotal.Value(); got != 8 {
		t.Errorf("points total after canceled sweep = %d, want 8", got)
	}
	if got := rec.ErrorsTotal.Value(); got != 6 {
		t.Errorf("errors total = %d, want 6", got)
	}
}
