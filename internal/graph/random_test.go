package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
)

func TestRandomConnectedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := RandomConnected(200, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Errorf("N = %d", g.N())
	}
	if g.M() < 199 || g.M() > 400 {
		t.Errorf("M = %d, want in [199,400]", g.M())
	}
	// Connectivity is implied by FromAdjacency succeeding (all reachable).
}

func TestRandomConnectedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomConnected(0, 0, rng); err == nil {
		t.Error("n=0 accepted")
	}
	g, err := RandomConnected(1, 5, rng)
	if err != nil || g.N() != 1 || g.M() != 0 {
		t.Errorf("single node: %v n=%d m=%d", err, g.N(), g.M())
	}
	// m below n−1: still a spanning tree.
	g, err = RandomConnected(10, 0, rng)
	if err != nil || g.M() != 9 {
		t.Errorf("tree case: %v m=%d", err, g.M())
	}
}

func TestExplorerOnRandomConnectedGraphs(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%150
		m := n - 1 + int(extraRaw)%n
		k := 1 + int(kRaw)%12
		g, err := RandomConnected(n, m, rng)
		if err != nil {
			return false
		}
		e, err := NewExplorer(g, k)
		if err != nil {
			return false
		}
		res, err := e.Run(0)
		if err != nil {
			t.Logf("seed=%d n=%d m=%d k=%d: %v", seed, n, m, k, err)
			return false
		}
		if !res.AllEdgesVisited || !res.AllAtOrigin {
			return false
		}
		if res.TreeEdges != g.N()-1 || res.TreeEdges+res.ClosedEdges != g.M() {
			return false
		}
		bound := bounds.Proposition9(g.M(), g.Eccentricity(), k, g.MaxDegree())
		if float64(res.Rounds) > bound {
			t.Logf("seed=%d n=%d m=%d k=%d: %d rounds > %.1f", seed, n, m, k, res.Rounds, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
