package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
)

// RandomConnected builds a random connected graph with n nodes and
// approximately m edges: a uniform random spanning tree plus extra random
// edges (duplicates and self-loops skipped). Origin is node 0. It exercises
// the §4.3 variant beyond grid graphs — Proposition 9 holds for any graph
// once robots know their distance to the origin.
func RandomConnected(n, m int, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need n ≥ 1 nodes, got %d", n)
	}
	type edge struct{ u, v int32 }
	seen := make(map[edge]bool, m)
	adj := make([][]int32, n)
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[edge{a, b}] {
			return false
		}
		seen[edge{a, b}] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return true
	}
	// Random spanning tree: attach each node to a random earlier one.
	for v := 1; v < n; v++ {
		addEdge(int32(rng.Intn(v)), int32(v))
	}
	edges := n - 1
	for tries := 0; edges < m && tries < 20*m+100; tries++ {
		if addEdge(int32(rng.Intn(n)), int32(rng.Intn(n))) {
			edges++
		}
	}
	return FromAdjacency(adj, 0)
}

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
