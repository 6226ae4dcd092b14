package graph

import (
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
)

// manhattanOracle reports whether the exact BFS distance coincides with the
// Manhattan distance x+y for every node of the grid — the special structure
// [12] exploits. It holds for many rectangular-obstacle layouts but not all;
// the exploration engine always uses the exact oracle, which is the
// assumption Proposition 9 actually needs.
func manhattanOracle(gd *Grid) bool {
	for v, xy := range gd.XY {
		if int(gd.G.dist[v]) != int(xy[0])+int(xy[1]) {
			return false
		}
	}
	return true
}

func mustGrid(t *testing.T, w, h int, rects []Rect) *Grid {
	t.Helper()
	gd, err := NewGrid(w, h, rects)
	if err != nil {
		t.Fatalf("NewGrid(%d,%d): %v", w, h, err)
	}
	return gd
}

func TestGridNoObstacles(t *testing.T) {
	gd := mustGrid(t, 5, 4, nil)
	if gd.G.N() != 20 {
		t.Errorf("N = %d, want 20", gd.G.N())
	}
	// Edges of a full grid: w(h−1) + h(w−1).
	if want := 5*3 + 4*4; gd.G.M() != want {
		t.Errorf("M = %d, want %d", gd.G.M(), want)
	}
	if !manhattanOracle(gd) {
		t.Error("obstacle-free grid should satisfy the Manhattan oracle")
	}
	if gd.G.Eccentricity() != 7 {
		t.Errorf("eccentricity = %d, want 7", gd.G.Eccentricity())
	}
}

func TestGridWithObstacle(t *testing.T) {
	gd := mustGrid(t, 6, 6, []Rect{{X0: 2, Y0: 2, X1: 4, Y1: 4}})
	if gd.G.N() != 32 {
		t.Errorf("N = %d, want 32 (36 − 4 blocked)", gd.G.N())
	}
	if gd.NodeAt[2][2] != -1 || gd.NodeAt[3][3] != -1 {
		t.Error("obstacle cells got node ids")
	}
	// All distances consistent: neighbours differ by exactly 1.
	for v := int32(0); int(v) < gd.G.N(); v++ {
		for p := 0; p < gd.G.Degree(v); p++ {
			w := gd.G.Neighbor(v, p)
			d := gd.G.Dist(v) - gd.G.Dist(w)
			if d < -1 || d > 1 {
				t.Fatalf("dist gap %d between neighbours %d,%d", d, v, w)
			}
		}
	}
}

func TestGridOriginBlocked(t *testing.T) {
	if _, err := NewGrid(4, 4, []Rect{{X0: 0, Y0: 0, X1: 1, Y1: 1}}); err == nil {
		t.Error("blocked origin accepted")
	}
}

func TestGridDisconnectedPartDropped(t *testing.T) {
	// A full-height wall at x=2 disconnects x ≥ 3.
	gd := mustGrid(t, 6, 3, []Rect{{X0: 2, Y0: 0, X1: 3, Y1: 3}})
	if gd.G.N() != 6 {
		t.Errorf("N = %d, want 6 (only the x<2 block reachable)", gd.G.N())
	}
}

func TestReversePorts(t *testing.T) {
	gd := mustGrid(t, 4, 4, nil)
	g := gd.G
	for u := int32(0); int(u) < g.N(); u++ {
		for p := 0; p < g.Degree(u); p++ {
			w := g.Neighbor(u, p)
			q := g.ReversePort(u, p)
			if g.Neighbor(w, int(q)) != u {
				t.Fatalf("reverse port broken at %d:%d", u, p)
			}
			if g.ReversePort(w, int(q)) != int32(p) {
				t.Fatalf("reverse of reverse broken at %d:%d", u, p)
			}
		}
	}
}

func TestFromAdjacencyErrors(t *testing.T) {
	if _, err := FromAdjacency(nil, 0); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := FromAdjacency([][]int32{{1}, {0}}, 5); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := FromAdjacency([][]int32{{1}, {}}, 0); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
	if _, err := FromAdjacency([][]int32{{}, {}}, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func runExplorer(t *testing.T, g *Graph, k int) GResult {
	t.Helper()
	e, err := NewExplorer(g, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	if !res.AllEdgesVisited {
		t.Fatalf("k=%d: %d/%d edge sides classified", k, e.classified, 2*g.M())
	}
	if !res.AllAtOrigin {
		t.Fatalf("k=%d: robots not back at origin", k)
	}
	return res
}

func TestExplorerCorrectnessGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grids := []*Grid{
		mustGrid(t, 1, 1, nil),
		mustGrid(t, 2, 1, nil),
		mustGrid(t, 8, 8, nil),
		mustGrid(t, 10, 6, []Rect{{X0: 3, Y0: 1, X1: 5, Y1: 4}}),
		mustGrid(t, 12, 12, []Rect{{X0: 2, Y0: 2, X1: 4, Y1: 9}, {X0: 6, Y0: 0, X1: 8, Y1: 5}}),
	}
	g, err := RandomGrid(15, 15, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	grids = append(grids, g)
	for _, gd := range grids {
		for _, k := range []int{1, 2, 4, 16} {
			res := runExplorer(t, gd.G, k)
			if res.TreeEdges != gd.G.N()-1 {
				t.Errorf("grid %dx%d k=%d: %d tree edges, want %d",
					gd.Width, gd.Height, k, res.TreeEdges, gd.G.N()-1)
			}
			if res.TreeEdges+res.ClosedEdges != gd.G.M() {
				t.Errorf("grid %dx%d k=%d: tree %d + closed %d != m %d",
					gd.Width, gd.Height, k, res.TreeEdges, res.ClosedEdges, gd.G.M())
			}
		}
	}
}

func TestExplorerProposition9Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 8; trial++ {
		gd, err := RandomGrid(12+rng.Intn(10), 12+rng.Intn(10), rng.Intn(8), 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 9, 27} {
			res := runExplorer(t, gd.G, k)
			bound := bounds.Proposition9(gd.G.M(), gd.G.Eccentricity(), k, gd.G.MaxDegree())
			if float64(res.Rounds) > bound {
				t.Errorf("grid %dx%d k=%d: %d rounds exceed Prop 9 bound %.1f",
					gd.Width, gd.Height, k, res.Rounds, bound)
			}
		}
	}
}

func TestExplorerNonGridGraph(t *testing.T) {
	// A cycle of 8 nodes: BFS tree is two paths; 1 closed (antipodal) edge.
	adj := make([][]int32, 8)
	for i := 0; i < 8; i++ {
		adj[i] = []int32{int32((i + 1) % 8), int32((i + 7) % 8)}
	}
	g, err := FromAdjacency(adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runExplorer(t, g, 2)
	if res.ClosedEdges != 1 {
		t.Errorf("cycle: %d closed edges, want 1", res.ClosedEdges)
	}
	if res.TreeEdges != 7 {
		t.Errorf("cycle: %d tree edges, want 7", res.TreeEdges)
	}
}

func TestExplorerCompleteGraph(t *testing.T) {
	// K5: the BFS tree is a star at the origin; all other edges closed.
	n := 5
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				adj[i] = append(adj[i], int32(j))
			}
		}
	}
	g, err := FromAdjacency(adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runExplorer(t, g, 3)
	if res.TreeEdges != n-1 {
		t.Errorf("K5 tree edges = %d, want %d", res.TreeEdges, n-1)
	}
	if res.ClosedEdges != g.M()-(n-1) {
		t.Errorf("K5 closed = %d, want %d", res.ClosedEdges, g.M()-(n-1))
	}
}

func TestExplorerDeterministic(t *testing.T) {
	gd := mustGrid(t, 10, 10, []Rect{{X0: 4, Y0: 4, X1: 6, Y1: 6}})
	a := runExplorer(t, gd.G, 5)
	b := runExplorer(t, gd.G, 5)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d rounds", a.Rounds, b.Rounds)
	}
}

func TestExplorerErrors(t *testing.T) {
	gd := mustGrid(t, 3, 3, nil)
	if _, err := NewExplorer(gd.G, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRandomGridObstacleNeverCoversOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		gd, err := RandomGrid(10, 10, 10, 6, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if gd.NodeAt[0][0] != 0 {
			t.Fatal("origin is not node 0")
		}
	}
}
