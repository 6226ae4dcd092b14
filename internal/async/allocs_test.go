// The race detector changes inlining and escape decisions, so allocation
// counts under -race are not the production ones; these pins run without it.

//go:build !race

package async

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// TestRecycledPointAllocPins holds one steady-state asynchronous sweep
// point at its measured allocations, for both strategies: the engine is
// Rebound to its one algorithm instance and Reset in place, and RunContext
// drains the event loop. The event heap, the parked-robot
// buffer and both strategies' indexes are reused, so what is left is the
// Result's own WorkDist copy; a per-event or per-node allocation in the
// loop multiplies the count past the pin at once.
func TestRecycledPointAllocPins(t *testing.T) {
	tr := tree.Random(600, 14, rand.New(rand.NewSource(7)))
	speeds := []float64{1, 2, 2, 4}
	for _, c := range []struct {
		name string
		pin  float64
	}{{"bfdn", 1}, {"potential", 1}} {
		t.Run(c.name, func(t *testing.T) {
			alg, err := NewNamedAlgorithm(c.name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(tr, speeds, WithAlgorithm(alg), WithLatency(Jitter{Frac: 0.5}))
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(0)
			point := func() error {
				e.Rebind(alg, nil)
				seed++
				if err := e.Reset(tr, speeds, seed); err != nil {
					return err
				}
				_, err = e.RunContext(context.Background(), 0)
				return err
			}
			// Warm-up points grow every lazily sized buffer to its
			// steady-state capacity before the measured runs.
			for i := 0; i < 3; i++ {
				if err := point(); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(5, func() {
				if perr := point(); perr != nil {
					err = perr
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: steady-state point allocs = %.0f (pin %.0f)", c.name, got, c.pin)
			if got > c.pin {
				t.Errorf("%s: steady-state point allocated %.0f times, pin is %.0f", c.name, got, c.pin)
			}
		})
	}
}
