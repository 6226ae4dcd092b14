package levelwise

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runLW(t *testing.T, tr *tree.Tree, k int) (sim.Result, *Levelwise) {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(k)
	res, err := sim.Run(w, alg, 0)
	if err != nil {
		t.Fatalf("%s k=%d: %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s k=%d: explored %d/%d", tr, k, w.ExploredCount(), tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("%s k=%d: robots not home", tr, k)
	}
	return res, alg
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(44))
	return []*tree.Tree{
		tree.Path(1), tree.Path(2), tree.Path(30), tree.Star(40),
		tree.KAry(2, 6), tree.Spider(6, 8), tree.Comb(10, 4),
		tree.Broom(12, 9), tree.Random(400, 12, rng),
		tree.RandomBinary(200, rng), tree.UnevenPaths(8, 20),
	}
}

func TestLevelwiseCorrectness(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 7, 25, 200} {
			res, _ := runLW(t, tr, k)
			if res.EdgeExplorations != tr.N()-1 {
				t.Errorf("%s k=%d: %d explorations", tr, k, res.EdgeExplorations)
			}
		}
	}
}

func TestLevelwiseWithinBound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 4, 16, 128} {
			res, _ := runLW(t, tr, k)
			if got, bound := float64(res.Rounds), Bound(tr.N(), tr.Depth(), k); got > bound {
				t.Errorf("%s k=%d: %v rounds exceed bound %v", tr, k, got, bound)
			}
		}
	}
}

func TestLevelwiseODSquaredRegime(t *testing.T) {
	// The open-directions claim: for k ≥ n/D, exploration in O(D²) rounds.
	// With our phase constant, ≤ 2(D+1)·2D ≤ 4D² + slack.
	rng := rand.New(rand.NewSource(9))
	for _, tr := range []*tree.Tree{
		tree.Random(500, 25, rng),
		tree.Random(1000, 50, rng),
		tree.KAry(2, 8),
	} {
		k := (tr.N() + tr.Depth() - 1) / tr.Depth() // k = ⌈n/D⌉
		res, _ := runLW(t, tr, k)
		d := float64(tr.Depth())
		if float64(res.Rounds) > 4*d*d+6*d+4 {
			t.Errorf("%s k=%d: %d rounds exceed O(D²) cap %.0f", tr, k, res.Rounds, 4*d*d+6*d+4)
		}
	}
}

func TestLevelwisePhaseCount(t *testing.T) {
	// Phases ≤ D + ⌈(n−1)/k⌉ (each phase clears the frontier level or uses
	// all k slots).
	rng := rand.New(rand.NewSource(13))
	tr := tree.Random(600, 18, rng)
	for _, k := range []int{3, 10, 60} {
		_, alg := runLW(t, tr, k)
		limit := tr.Depth() + (tr.N()-2+k)/k
		if alg.Phases > limit {
			t.Errorf("k=%d: %d phases exceed D+⌈(n−1)/k⌉ = %d", k, alg.Phases, limit)
		}
		if alg.Phases == 0 {
			t.Errorf("k=%d: no phases recorded", k)
		}
	}
}

func TestLevelwiseBeatsBFDNOverheadAtHugeK(t *testing.T) {
	// At k ≥ n/D, levelwise's O(D²) overhead beats BFDN's D²·log k in the
	// guarantee; empirically both are far below their bounds, so we only
	// check levelwise stays within a small multiple of 2D (wave after wave).
	tr := tree.KAry(2, 9) // n=1023, D=9
	k := 1024
	res, _ := runLW(t, tr, k)
	if res.Rounds > 4*tr.Depth()*tr.Depth() {
		t.Errorf("rounds = %d on a full binary tree with k ≥ n", res.Rounds)
	}
}

func TestLevelwiseStarOneWave(t *testing.T) {
	// Star with k ≥ n−1: one phase, two rounds.
	res, alg := runLW(t, tree.Star(33), 32)
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
	if alg.Phases != 1 {
		t.Errorf("phases = %d, want 1", alg.Phases)
	}
}

func TestLevelwisePathIsSlow(t *testing.T) {
	// Degenerate worst case: a path forces one phase per level — Θ(D²)
	// rounds regardless of k. This is exactly why BFDN's depth-next moves
	// matter; the test documents the tradeoff.
	tr := tree.Path(41) // D = 40
	res, alg := runLW(t, tr, 8)
	if alg.Phases != tr.Depth() {
		t.Errorf("phases = %d, want D = %d", alg.Phases, tr.Depth())
	}
	if res.Rounds < tr.Depth()*tr.Depth()/2 {
		t.Errorf("rounds = %d, expected Θ(D²) on a path", res.Rounds)
	}
}

func TestLevelwiseDeterministic(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(5)))
	a, _ := runLW(t, tr, 9)
	b, _ := runLW(t, tr, 9)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d", a.Rounds, b.Rounds)
	}
}

func TestBoundFormula(t *testing.T) {
	if got := Bound(101, 10, 10); math.Abs(got-2*11*(10+10)) > 1e-9 {
		t.Errorf("Bound = %v, want %v", got, 2.0*11*20)
	}
	if got := Bound(2, 1, 1); got != 2*2*(1+1) {
		t.Errorf("Bound(2,1,1) = %v", got)
	}
}

// TestRecycleEqualsFresh runs an instance on a deep tree, recycles it for
// fewer robots, and checks that it snapshots like a fresh instance and then
// runs a shallower tree exactly as a fresh one does: no bucket, cursor or
// count from the first run may leak into the second.
func TestRecycleEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	deep, small := tree.Random(900, 40, rng), tree.Random(300, 10, rng)
	_, used := runLW(t, deep, 16)
	used.Reset(6)
	if !bytes.Equal(state(used), state(New(6))) {
		t.Fatal("a recycled instance snapshots differently from a fresh one")
	}
	w, err := sim.NewWorld(small, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(w, used, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, fresh := runLW(t, small, 6)
	if !reflect.DeepEqual(got, want) || used.Phases != fresh.Phases {
		t.Errorf("recycled run %+v (%d phases) differs from fresh run %+v (%d phases)",
			got, used.Phases, want, fresh.Phases)
	}
}
