package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
)

// TestGraphPropertyRandomGrids checks the §4.3 contract on random obstacle
// grids: every edge classified, the survivors form a spanning BFS tree, and
// the Proposition 9 budget holds.
func TestGraphPropertyRandomGrids(t *testing.T) {
	f := func(seed int64, wRaw, hRaw, rRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 3 + int(wRaw)%14
		height := 3 + int(hRaw)%14
		nRects := int(rRaw) % 6
		k := 1 + int(kRaw)%20
		gd, err := RandomGrid(width, height, nRects, 4, rng)
		if err != nil {
			return false
		}
		e, err := NewExplorer(gd.G, k)
		if err != nil {
			return false
		}
		res, err := e.Run(0)
		if err != nil {
			t.Logf("seed=%d %dx%d k=%d: %v", seed, width, height, k, err)
			return false
		}
		if !res.AllEdgesVisited || !res.AllAtOrigin {
			return false
		}
		if res.TreeEdges != gd.G.N()-1 || res.TreeEdges+res.ClosedEdges != gd.G.M() {
			return false
		}
		bound := bounds.Proposition9(gd.G.M(), gd.G.Eccentricity(), k, gd.G.MaxDegree())
		if float64(res.Rounds) > bound {
			t.Logf("seed=%d %dx%d k=%d: %d rounds over Prop 9 %.1f", seed, width, height, k, res.Rounds, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
