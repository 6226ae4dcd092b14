package core

import (
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/tree"
)

func TestShortcutReanchorCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for _, tr := range []*tree.Tree{
		tree.Path(30), tree.Star(25), tree.KAry(2, 6), tree.Spider(6, 9),
		tree.Comb(10, 5), tree.Random(400, 14, rng), tree.UnevenPaths(8, 20),
	} {
		for _, k := range []int{1, 3, 8} {
			res, _ := runBFDN(t, tr, k, WithShortcutReanchor())
			if res.EdgeExplorations != tr.N()-1 {
				t.Errorf("%s k=%d: %d explorations, want %d", tr, k, res.EdgeExplorations, tr.N()-1)
			}
		}
	}
}

func TestShortcutSavesRoundsOnWideTrees(t *testing.T) {
	// On a spider, the shortcut avoids the full descent from the root for
	// every leg change; it must not be slower than the baseline by more than
	// noise, and is typically faster.
	tr := tree.Spider(24, 30)
	k := 6
	base, _ := runBFDN(t, tr, k)
	short, _ := runBFDN(t, tr, k, WithShortcutReanchor())
	if float64(short.Rounds) > 1.1*float64(base.Rounds) {
		t.Errorf("shortcut (%d rounds) slower than baseline (%d)", short.Rounds, base.Rounds)
	}
}

func TestShortcutStillWithinTheorem1(t *testing.T) {
	// The shortcut variant only removes travel; the Theorem 1 budget still
	// holds empirically.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		n := 20 + rng.Intn(400)
		d := 1 + rng.Intn(30)
		k := 1 + rng.Intn(20)
		tr := tree.Random(n, d, rng)
		res, _ := runBFDN(t, tr, k, WithShortcutReanchor())
		if got, bound := float64(res.Rounds), bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree()); got > bound {
			t.Errorf("n=%d D=%d k=%d: %v rounds exceed %v", n, tr.Depth(), k, got, bound)
		}
	}
}
