package sweep

import (
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// reuseGrid builds a mixed grid that forces the worker's algorithm slot
// through every transition: BFDN→BFDN (reset in place), BFDN→CTE and
// CTE→BFDN (another name, fresh construction), growing and shrinking k,
// differing trees, and a randomized policy that must draw identical rng
// streams on both paths. Points of one algorithm run back to back, so a
// single worker resets most of them.
func reuseGrid(named bool) []Point {
	rng := rand.New(rand.NewSource(5))
	trees := []*tree.Tree{
		tree.Random(800, 20, rng),
		tree.UnevenPaths(16, 25),
		tree.Comb(30, 6),
	}
	kinds := []struct {
		name  string
		build func(k int, rng *rand.Rand) sim.Algorithm
	}{
		{"bfdn", func(k int, _ *rand.Rand) sim.Algorithm { return core.NewAlgorithm(k) }},
		{"cte", func(k int, _ *rand.Rand) sim.Algorithm { return cte.New(k) }},
		{"bfdn-random", func(k int, rng *rand.Rand) sim.Algorithm {
			return core.NewAlgorithm(k, core.WithPolicy(core.RandomOpen), core.WithRand(rng))
		}},
	}
	var pts []Point
	for _, kind := range kinds {
		for _, tr := range trees {
			for _, k := range []int{2, 7, 32} {
				p := Point{Tree: tr, K: k, NewAlgorithm: kind.build}
				if named {
					p.Name = kind.name
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// TestAlgorithmReuseByteIdentical is the determinism contract extended to
// recycled algorithms: a sweep whose points recycle the worker's previous
// algorithm instance must produce results deep-equal to fresh-construction
// runs, at every worker count (different worker counts shuffle which
// instance each point inherits).
func TestAlgorithmReuseByteIdentical(t *testing.T) {
	fresh, _ := Run(reuseGrid(false), Options{Workers: 1, BaseSeed: 42})
	if err := JoinErrors(fresh); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		reused, _ := Run(reuseGrid(true), Options{Workers: workers, BaseSeed: 42})
		if err := JoinErrors(reused); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			for i := range fresh {
				if !reflect.DeepEqual(fresh[i], reused[i]) {
					t.Errorf("workers=%d: point %d differs with algorithm reuse:\nfresh:  %+v\nreused: %+v",
						workers, i, fresh[i], reused[i])
				}
			}
		}
	}
}

// TestReuseHookFallback checks that a worker resets its previous instance
// only for a point with the same non-empty name: a point with another name,
// or none, is built fresh, and every run matches.
func TestReuseHookFallback(t *testing.T) {
	tr := tree.Path(50)
	built := 0
	newBFDN := func(k int, _ *rand.Rand) sim.Algorithm {
		built++
		return core.NewAlgorithm(k)
	}
	pts := []Point{
		{Tree: tr, K: 2, NewAlgorithm: newBFDN, Name: "bfdn"},
		{Tree: tr, K: 2, NewAlgorithm: newBFDN, Name: "bfdn"},
		{Tree: tr, K: 2, NewAlgorithm: newBFDN, Name: "other"},
		{Tree: tr, K: 2, NewAlgorithm: newBFDN},
		{Tree: tr, K: 2, NewAlgorithm: newBFDN},
	}
	results, _ := Run(pts, Options{Workers: 1, BaseSeed: 9})
	if err := JoinErrors(results); err != nil {
		t.Fatal(err)
	}
	if built != 4 {
		t.Errorf("built %d instances, want 4: only the second point may reuse the first's", built)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Result, results[i].Result) {
			t.Errorf("point %d differs: %+v vs %+v", i, results[0].Result, results[i].Result)
		}
	}
}
