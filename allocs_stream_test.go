// The race detector changes inlining and escape decisions, so allocation
// counts under -race are not the production ones; these pins run without it.

//go:build !race

package bfdn

import (
	"context"
	"testing"
)

// marginalAllocs is the allocation cost of one more point through the whole
// streaming pipeline: the allocations of a 2n-point run minus those of an
// n-point run, over n. Construction, pool start-up and first-point warm-up
// cancel out, leaving what every point adds — facade validation, engine
// glue, the result callback and the run itself.
func marginalAllocs(t *testing.T, n int, run func(points int) error) float64 {
	t.Helper()
	measure := func(points int) float64 {
		var err error
		got := testing.AllocsPerRun(3, func() {
			if rerr := run(points); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	return (measure(2*n) - measure(n)) / float64(n)
}

// TestSweepStreamMarginalAllocPins holds the per-point allocations of
// SweepStream and SweepAsyncStream (no store, one worker) at their measured
// values, so glue between the facade and the pool — a boxed result, a
// report whose address escapes, a closure built per point — cannot slip in
// unnoticed. TestSweepReuseAllocPins covers the engine step alone; this pin
// covers everything around it.
func TestSweepStreamMarginalAllocPins(t *testing.T) {
	tr := allocTree(t)
	ctx := context.Background()
	const n = 8
	// Measurements are means over n points truncated to whole allocations,
	// so they wobble by a fraction of one; half an allocation of headroom
	// still fails on any new per-point allocation.
	checkPin := func(t *testing.T, got, pin float64) {
		t.Helper()
		t.Logf("%.2f allocs/point (pin %.2f)", got, pin)
		if got > pin+0.5 {
			t.Errorf("one more point allocates %.2f times, pin is %.2f", got, pin)
		}
	}
	for _, c := range allocCases() {
		t.Run("sync/"+c.name, func(t *testing.T) {
			got := marginalAllocs(t, n, func(points int) error {
				pts := make([]SweepPoint, points)
				for i := range pts {
					pts[i] = SweepPoint{Tree: tr, K: c.k, Algorithm: c.alg}
				}
				_, err := SweepStream(ctx, pts, 1, 3, func(int, SweepResult) {})
				return err
			})
			checkPin(t, got, c.streamPin)
		})
	}
	for _, c := range []struct {
		alg AsyncAlgorithm
		pin float64
	}{{AsyncBFDN, 4}, {AsyncPotential, 4}} {
		alg := c.alg
		t.Run("async/"+alg.String(), func(t *testing.T) {
			got := marginalAllocs(t, n, func(points int) error {
				pts := make([]AsyncSweepPoint, points)
				for i := range pts {
					pts[i] = AsyncSweepPoint{Tree: tr, Speeds: []float64{1, 2, 2, 4}, Algorithm: alg, Latency: "jitter:0.5"}
				}
				_, err := SweepAsyncStream(ctx, pts, 1, 3, func(int, AsyncSweepResult) {})
				return err
			})
			checkPin(t, got, c.pin)
		})
	}
}
