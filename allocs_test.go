package bfdn

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/levelwise"
	"bfdn/internal/offline"
	"bfdn/internal/potential"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
)

// allocCase pins the allocation behaviour of one algorithm on the two paths
// a production deployment exercises: a cold Explore (world + algorithm
// construction + the run) and a steady-state sweep point (world Reset +
// algorithm Reset(k) + sim.RunRecycledContext with an arena-carved report
// buffer). The pins are ceilings with headroom over measured values — they exist to
// catch the class of regression where a per-round or per-node allocation
// sneaks back into a hot loop (turning O(1) into O(rounds) allocations),
// not to freeze exact counts.
type allocCase struct {
	name  string
	alg   Algorithm
	k     int
	fresh func(k int, rng *rand.Rand) sim.Algorithm
	// explorePin bounds a full Explore call; sweepPin bounds one recycled
	// steady-state point. Algorithms without a Reset(k) method construct
	// fresh every point, so their sweepPin covers construction too.
	explorePin float64
	sweepPin   float64
	// streamPin bounds the marginal allocations of one more point through
	// SweepStream (TestSweepStreamMarginalAllocPins).
	streamPin float64
}

func allocCases() []allocCase {
	return []allocCase{
		{name: "bfdn", alg: BFDN, k: 8,
			fresh: func(k int, _ *rand.Rand) sim.Algorithm {
				return core.NewAlgorithm(k, core.WithPolicy(core.LeastLoaded))
			},
			explorePin: 400, sweepPin: 10, streamPin: 12},
		{name: "bfdnl", alg: BFDNRecursive, k: 8,
			fresh: func(k int, _ *rand.Rand) sim.Algorithm {
				a, err := recursive.NewBFDNL(k, 2)
				if err != nil {
					panic(err)
				}
				return a
			},
			explorePin: 500, sweepPin: 450, streamPin: 192.75},
		{name: "cte", alg: CTE, k: 8,
			fresh:      func(k int, _ *rand.Rand) sim.Algorithm { return cte.New(k) },
			explorePin: 120, sweepPin: 10, streamPin: 4},
		{name: "dfs", alg: DFS, k: 1,
			fresh:      func(int, *rand.Rand) sim.Algorithm { return &offline.DFS{} },
			explorePin: 40, sweepPin: 10, streamPin: 4},
		{name: "levelwise", alg: Levelwise, k: 8,
			fresh:      func(k int, _ *rand.Rand) sim.Algorithm { return levelwise.New(k) },
			explorePin: 250, sweepPin: 10, streamPin: 4},
		{name: "treemining", alg: TreeMining, k: 8,
			fresh:      func(k int, _ *rand.Rand) sim.Algorithm { return treemining.New(k) },
			explorePin: 200, sweepPin: 10, streamPin: 4},
		{name: "potential", alg: Potential, k: 8,
			fresh:      func(k int, _ *rand.Rand) sim.Algorithm { return potential.New(k) },
			explorePin: 60, sweepPin: 10, streamPin: 3},
	}
}

// allocTree is the fixed workload the pins are calibrated against; any
// change here invalidates every pin, so grow a new tree only together with
// re-measured ceilings.
func allocTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := GenerateTree(FamilyRandom, 600, 14, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestExploreAllocPins bounds the allocations of a cold Explore call per
// algorithm. Dominated by world construction (CSR arrays) and algorithm
// construction, both O(1) in rounds — a per-round allocation in any hot
// loop multiplies the count past the pin immediately.
func TestExploreAllocPins(t *testing.T) {
	tr := allocTree(t)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := testing.AllocsPerRun(5, func() {
				_, err = Explore(tr, c.k, WithAlgorithm(c.alg))
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: Explore allocs = %.0f (pin %.0f)", c.name, got, c.explorePin)
			if got > c.explorePin {
				t.Errorf("%s: Explore allocated %.0f times, pin is %.0f", c.name, got, c.explorePin)
			}
		})
	}
}

// TestSweepReuseAllocPins bounds the allocations of one steady-state sweep
// point per algorithm: the worker's world is Reset in place, the algorithm
// through its Reset(k) method (fresh construction where it has none), and
// the report's MovesPerRobot lands in a caller-owned buffer — exactly the
// internal/sweep runPoint path. Recyclable algorithms must stay in single
// digits (the engine's GC-free steady-state contract); the rest pin their
// construction cost.
func TestSweepReuseAllocPins(t *testing.T) {
	tr := allocTree(t)
	for _, c := range allocCases() {
		t.Run(c.name, func(t *testing.T) {
			w, err := sim.NewWorld(treeOf(tr), c.k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			alg := c.fresh(c.k, rng)
			buf := make([]int64, c.k)
			point := func() error {
				if err := w.Reset(treeOf(tr), c.k); err != nil {
					return err
				}
				if r, ok := alg.(interface{ Reset(k int) }); ok {
					r.Reset(c.k)
				} else {
					alg = c.fresh(c.k, rng)
				}
				_, err := sim.RunRecycledContext(context.Background(), w, alg, 0, buf)
				return err
			}
			// Two warm-up points grow every lazily-sized buffer to its
			// steady-state capacity before the measured runs.
			for i := 0; i < 2; i++ {
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
			t.Logf("%s: steady-state point allocs = %.0f (pin %.0f)", c.name, got, c.sweepPin)
			if got > c.sweepPin {
				t.Errorf("%s: steady-state point allocated %.0f times, pin is %.0f", c.name, got, c.sweepPin)
			}
		})
	}
}

// treeOf unwraps the facade Tree for in-package engine tests.
func treeOf(tr *Tree) *tree.Tree { return tr.t }
