package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// runBFDNFresh runs a freshly constructed Algorithm and returns the result.
func runBFDNFresh(t *testing.T, tr *tree.Tree, k int, seed int64, opts ...Option) sim.Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAlgorithm(k, append([]Option{WithRand(rand.New(rand.NewSource(seed)))}, opts...)...)
	res, err := sim.Run(w, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAlgorithmResetMatchesFresh mirrors internal/sim's
// TestResetMatchesFreshWorld for the algorithm side: one Algorithm instance
// is recycled through a mixed sequence of (tree, k) shapes — growing and
// shrinking both n and k — and every run is checked metric-for-metric against
// a freshly constructed instance on a fresh world.
func TestAlgorithmResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seq := []struct {
		tr *tree.Tree
		k  int
	}{
		{tree.Path(40), 3},
		{tree.Random(400, 16, rng), 8},
		{tree.Star(30), 2},             // shrink n
		{tree.Random(600, 25, rng), 1}, // grow n, shrink k
		{tree.KAry(2, 6), 16},          // grow k
		{tree.UnevenPaths(8, 20), 5},
		{tree.Path(40), 3}, // revisit the first shape
	}
	for _, policy := range []Policy{LeastLoaded, MostLoaded, RoundRobin, RandomOpen} {
		var w *sim.World
		var a *Algorithm
		// One rng reseeded in place for every run, as a sweep worker does:
		// the reset instance keeps drawing from it.
		rng := rand.New(rand.NewSource(100))
		for i, s := range seq {
			rng.Seed(int64(100 + i))
			if a == nil {
				a = NewAlgorithm(s.k, WithPolicy(policy), WithRand(rng))
				var err error
				w, err = sim.NewWorld(s.tr, s.k)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				a.Reset(s.k)
				if err := w.Reset(s.tr, s.k); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sim.Run(w, a, 0)
			if err != nil {
				t.Fatalf("policy %v step %d: %v", policy, i, err)
			}
			want := runBFDNFresh(t, s.tr, s.k, int64(100+i), WithPolicy(policy))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("policy %v step %d (%s k=%d): reset run %+v differs from fresh run %+v",
					policy, i, s.tr, s.k, got, want)
			}
			if !got.FullyExplored || !got.AllAtRoot {
				t.Errorf("policy %v step %d: termination state %+v", policy, i, got)
			}
		}
	}
}

// TestAlgorithmResetShortcutVariant exercises the reuse path for the A2
// shortcut ablation, whose reanchorAt scratch buffers are part of the
// recycled state.
func TestAlgorithmResetShortcutVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trees := []*tree.Tree{tree.UnevenPaths(16, 30), tree.Random(500, 18, rng), tree.Comb(20, 5)}
	var w *sim.World
	var a *Algorithm
	for i, tr := range trees {
		k := 4 + i
		if a == nil {
			a = NewAlgorithm(k, WithShortcutReanchor())
			var err error
			w, err = sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			a.Reset(k)
			if err := w.Reset(tr, k); err != nil {
				t.Fatal(err)
			}
		}
		got, err := sim.Run(w, a, 0)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want := runBFDNFresh(t, tr, k, 1, WithShortcutReanchor())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: shortcut reset run %+v differs from fresh %+v", i, got, want)
		}
	}
}
