package async

import (
	"math"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

func runPotential(t *testing.T, tr *tree.Tree, speeds []float64) Result {
	t.Helper()
	e, err := NewEngine(tr, speeds, WithAlgorithm(NewPotential()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatalf("potential on %s k=%d: %v", tr, len(speeds), err)
	}
	if !res.FullyExplored {
		t.Fatalf("potential on %s: not fully explored", tr)
	}
	if !res.AllAtRoot {
		t.Fatalf("potential on %s: robots not home", tr)
	}
	return res
}

func TestAsyncPotentialCorrectness(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16} {
			res := runPotential(t, tr, uniformSpeeds(k))
			var work float64
			for _, w := range res.WorkDist {
				work += w
			}
			if work < 2*float64(tr.N()-1) {
				t.Errorf("%s k=%d: total work %.0f < 2(n−1)", tr, k, work)
			}
		}
	}
}

// TestAsyncPotentialSingleRobotIsDFS: one robot always chases the DFS-first
// open slot, so the walk degenerates to an exact depth-first traversal —
// 2(n−1) unit-speed time on any tree, exactly as in the synchronous
// reproduction.
func TestAsyncPotentialSingleRobotIsDFS(t *testing.T) {
	for _, tr := range testTrees(t) {
		res := runPotential(t, tr, []float64{1})
		want := 2 * float64(tr.N()-1)
		if math.Abs(res.Makespan-want) > 1e-9 {
			t.Errorf("%s: k=1 makespan %.1f, want exact DFS %.0f", tr, res.Makespan, want)
		}
	}
}

// TestAsyncPotentialWithinBound: the unit-speed continuous-time run stays
// inside a cn/k + O(D²) envelope of the synchronous guarantee's shape. The
// per-arrival claim dynamics cost well more than the synchronized rounds on
// shallow bushy trees: claims and discoveries are separate instants, so
// robots chase DFS slots that shift underfoot and oscillate, tripling the
// linear term (measured worst ≈ 6.4n/k at k = 16 on Random(n, 18) up to
// n = 24000, slowly creeping with n). The reproduction's async envelope
// therefore uses c = 8 with a 4D² depth term rather than the synchronous
// 2n/k + 3D²; E16 checks the same envelope at experiment scale.
func TestAsyncPotentialWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 20; i++ {
		n := 20 + rng.Intn(400)
		d := 1 + rng.Intn(25)
		k := 1 + rng.Intn(20)
		tr := tree.Random(n, d, rng)
		res := runPotential(t, tr, uniformSpeeds(k))
		D := float64(tr.Depth())
		bound := 8*float64(tr.N())/float64(k) + 4*D*D + 4*D + 8
		if res.Makespan > bound {
			t.Errorf("n=%d D=%d k=%d: makespan %.1f exceeds 8n/k+4D²+4D+8 = %.1f", n, tr.Depth(), k, res.Makespan, bound)
		}
	}
}

func TestAsyncPotentialLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	tr := tree.Random(500, 15, rng)
	speeds := []float64{1, 1, 2, 4}
	res := runPotential(t, tr, speeds)
	if lb := LowerBound(tr.N(), tr.Depth(), speeds); res.Makespan < lb-1e-9 {
		t.Errorf("makespan %.2f below offline floor %.2f", res.Makespan, lb)
	}
}

func TestAsyncPotentialSingleNode(t *testing.T) {
	res := runPotential(t, tree.Path(1), uniformSpeeds(3))
	if res.Makespan != 0 {
		t.Errorf("makespan = %v on a single node", res.Makespan)
	}
}

func TestNamedAlgorithmRegistry(t *testing.T) {
	for _, name := range AlgorithmNames() {
		alg, err := NewNamedAlgorithm(name)
		if err != nil {
			t.Fatalf("NewNamedAlgorithm(%q): %v", name, err)
		}
		if alg.String() != name {
			t.Errorf("algorithm %q reports name %q", name, alg.String())
		}
	}
	if _, err := NewNamedAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
