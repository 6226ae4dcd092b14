package async

import (
	"math"
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/tree"
)

func uniformSpeeds(k int) []float64 {
	s := make([]float64, k)
	for i := range s {
		s[i] = 1
	}
	return s
}

func runAsync(t *testing.T, tr *tree.Tree, speeds []float64) Result {
	t.Helper()
	e, err := NewEngine(tr, speeds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatalf("%s k=%d: %v", tr, len(speeds), err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s: not fully explored", tr)
	}
	if !res.AllAtRoot {
		t.Fatalf("%s: robots not home", tr)
	}
	return res
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(52))
	return []*tree.Tree{
		tree.Path(1), tree.Path(2), tree.Path(30), tree.Star(25),
		tree.KAry(2, 6), tree.Spider(6, 8), tree.Comb(9, 4),
		tree.Random(400, 12, rng), tree.RandomBinary(200, rng),
	}
}

func TestAsyncCorrectnessUniformSpeeds(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16} {
			res := runAsync(t, tr, uniformSpeeds(k))
			var work float64
			for _, w := range res.WorkDist {
				work += w
			}
			// Every edge crossed at least twice in total (down and up or
			// bounce), plus anchor travel.
			if work < 2*float64(tr.N()-1) {
				t.Errorf("%s k=%d: total work %.0f < 2(n−1)", tr, k, work)
			}
		}
	}
}

func TestAsyncUniformWithinTheorem1Shape(t *testing.T) {
	// With unit speeds, the asynchronous run should stay within the
	// synchronous Theorem 1 budget — asynchrony removes waiting, it never
	// adds moves.
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 20; i++ {
		n := 20 + rng.Intn(400)
		d := 1 + rng.Intn(25)
		k := 1 + rng.Intn(20)
		tr := tree.Random(n, d, rng)
		res := runAsync(t, tr, uniformSpeeds(k))
		bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
		if res.Makespan > bound {
			t.Errorf("n=%d D=%d k=%d: makespan %.1f exceeds %.1f", n, tr.Depth(), k, res.Makespan, bound)
		}
	}
}

func TestAsyncMakespanAboveLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := tree.Random(500, 15, rng)
	speeds := []float64{1, 1, 2, 4}
	res := runAsync(t, tr, speeds)
	lb := LowerBound(tr.N(), tr.Depth(), speeds)
	if res.Makespan < lb-1e-9 {
		t.Errorf("makespan %.2f below offline floor %.2f", res.Makespan, lb)
	}
}

func TestAsyncFasterRobotsDoMoreWork(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := tree.Random(3000, 10, rng)
	speeds := []float64{1, 1, 8, 8}
	res := runAsync(t, tr, speeds)
	slow := res.WorkDist[0] + res.WorkDist[1]
	fast := res.WorkDist[2] + res.WorkDist[3]
	if fast <= slow {
		t.Errorf("fast robots did %.0f edges, slow did %.0f — expected fast ≫ slow", fast, slow)
	}
}

func TestAsyncHeterogeneousBeatsUniformSlow(t *testing.T) {
	// Replacing half the fleet with 4× robots must not hurt the makespan.
	rng := rand.New(rand.NewSource(10))
	tr := tree.Random(2000, 12, rng)
	uni := runAsync(t, tr, uniformSpeeds(4))
	het := runAsync(t, tr, []float64{1, 1, 4, 4})
	if het.Makespan > uni.Makespan+1e-9 {
		t.Errorf("heterogeneous fleet slower: %.1f vs %.1f", het.Makespan, uni.Makespan)
	}
}

func TestAsyncSingleRobotIsDFS(t *testing.T) {
	// One unit-speed robot anchored from the root explores like DFS plus
	// re-anchoring travel; on a path it is exactly 2(n−1) time.
	tr := tree.Path(40)
	res := runAsync(t, tr, []float64{1})
	if math.Abs(res.Makespan-2*float64(tr.N()-1)) > 1e-9 {
		t.Errorf("path makespan = %.1f, want %d", res.Makespan, 2*(tr.N()-1))
	}
	// At double speed, half the time.
	res2 := runAsync(t, tr, []float64{2})
	if math.Abs(res2.Makespan-float64(tr.N()-1)) > 1e-9 {
		t.Errorf("2× path makespan = %.1f, want %d", res2.Makespan, tr.N()-1)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := tree.Random(600, 14, rng)
	speeds := []float64{1, 2, 3, 5}
	a := runAsync(t, tr, speeds)
	b := runAsync(t, tr, speeds)
	if a.Makespan != b.Makespan {
		t.Errorf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.WorkDist {
		if a.WorkDist[i] != b.WorkDist[i] {
			t.Errorf("robot %d work differs: %v vs %v", i, a.WorkDist[i], b.WorkDist[i])
		}
	}
}

func TestAsyncErrors(t *testing.T) {
	tr := tree.Path(3)
	if _, err := NewEngine(tr, nil); err == nil {
		t.Error("no robots accepted")
	}
	for _, bad := range [][]float64{{0}, {-1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewEngine(tr, bad); err == nil {
			t.Errorf("speed %v accepted", bad)
		}
	}
}

func TestAsyncSingleNode(t *testing.T) {
	res := runAsync(t, tree.Path(1), uniformSpeeds(3))
	if res.Makespan != 0 {
		t.Errorf("makespan = %v on a single node", res.Makespan)
	}
}

func TestLowerBoundFormula(t *testing.T) {
	if got := LowerBound(101, 5, []float64{1, 1}); got != 100 {
		t.Errorf("LowerBound = %v, want 100", got)
	}
	if got := LowerBound(11, 50, []float64{1, 4}); got != 25 {
		t.Errorf("LowerBound = %v, want 25 (2·50/4)", got)
	}
}
