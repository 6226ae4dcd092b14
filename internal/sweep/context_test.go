package sweep

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bfdn/internal/core"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// slowGrid builds a sweep whose points each take a macroscopic amount of
// simulated work, so a cancellation reliably lands mid-sweep.
func slowGrid(n, points int) []Point {
	tr := tree.Path(n) // DFS on a path is the slowest workload: 2(n-1) rounds
	pts := make([]Point, points)
	for i := range pts {
		pts[i] = Point{Tree: tr, K: 1, NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
			return core.NewAlgorithm(k)
		}}
	}
	return pts
}

func TestRunContextCancelKeepsPartialResults(t *testing.T) {
	pts := slowGrid(20_000, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var completed atomic.Int64
	onResult := func(r Result) {
		if r.Err == nil {
			// Cancel as soon as the first few points have finished, while
			// most of the sweep is still pending or in flight.
			if completed.Add(1) == 3 {
				cancel()
			}
		}
	}
	start := time.Now()
	results, stats := RunContext(ctx, pts, Options{Workers: 4, BaseSeed: 9}, onResult)
	elapsed := time.Since(start)

	if stats.Points != len(pts) || len(results) != len(pts) {
		t.Fatalf("stats/results truncated: %+v, %d results", stats, len(results))
	}
	var ok, canceled int
	for i, r := range results {
		switch {
		case r.Err == nil:
			if !r.FullyExplored {
				t.Errorf("point %d: completed but not fully explored", i)
			}
			ok++
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("point %d: unexpected error %v", i, r.Err)
		}
	}
	if ok == 0 {
		t.Error("cancellation discarded every completed point")
	}
	if canceled == 0 {
		t.Error("no point observed the cancellation")
	}
	// Promptness: the full sweep is hundreds of ms of simulation; after the
	// cancel every worker must stop within one simulated round.
	if elapsed > 5*time.Second {
		t.Errorf("canceled sweep took %v, not prompt", elapsed)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	pts := slowGrid(100, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _ := RunContext(ctx, pts, Options{Workers: 2}, nil)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("point %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Seed != DeriveSeed(0, uint64(i)) {
			t.Errorf("point %d: canceled result lost its derived seed", i)
		}
	}
}

func TestOnResultCalledExactlyOncePerPoint(t *testing.T) {
	pts := testGrid(t)
	var mu sync.Mutex
	seen := make(map[int]int)
	_, _ = RunContext(context.Background(), pts, Options{Workers: 4, BaseSeed: 7}, func(r Result) {
		mu.Lock()
		seen[r.Point]++
		mu.Unlock()
	})
	if len(seen) != len(pts) {
		t.Fatalf("OnResult saw %d points, want %d", len(seen), len(pts))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("point %d reported %d times", i, n)
		}
	}
}

func TestOnResultMatchesReturnedResults(t *testing.T) {
	pts := testGrid(t)
	var mu sync.Mutex
	streamed := make([]Result, len(pts))
	results, _ := RunContext(context.Background(), pts, Options{Workers: 3, BaseSeed: 11}, func(r Result) {
		mu.Lock()
		streamed[r.Point] = r
		mu.Unlock()
	})
	if render(streamed) != render(results) {
		t.Error("streamed results differ from returned results")
	}
}
