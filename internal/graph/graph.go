// Package graph implements §4.3 of the paper: collaborative exploration of
// non-tree graphs by a BFDN variant, under the assumption that every robot
// knows, at any node, its distance to the origin in the underlying graph.
//
// The package provides the workload the paper points at — grid graphs with
// rectangular obstacles (Ortolf–Schindelhauer [12]) — plus the exploration
// engine and the Proposition 9 bound.
package graph

import (
	"fmt"
	"math/rand"
)

// Graph is an undirected graph with a distinguished origin and a
// per-node distance oracle. Nodes are dense ints; adjacency lists define
// local port numbers (adj[u][p] is the neighbour behind port p of u).
type Graph struct {
	adj [][]int32
	// rev[u][p] is the port of adj[u][p] that leads back to u.
	rev    [][]int32
	origin int32
	// dist[v] is the oracle value: the exact graph distance from the origin.
	dist []int32
	m    int // number of edges
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M reports the number of edges.
func (g *Graph) M() int { return g.m }

// Origin reports the robots' start node.
func (g *Graph) Origin() int32 { return g.origin }

// Degree reports the degree of node u.
func (g *Graph) Degree(u int32) int { return len(g.adj[u]) }

// Neighbor returns the node behind port p of u.
func (g *Graph) Neighbor(u int32, p int) int32 { return g.adj[u][p] }

// ReversePort returns the port of Neighbor(u,p) that leads back to u.
func (g *Graph) ReversePort(u int32, p int) int32 { return g.rev[u][p] }

// Dist reports the oracle distance of v from the origin.
func (g *Graph) Dist(v int32) int { return int(g.dist[v]) }

// Eccentricity reports max_v Dist(v), the D of Proposition 9.
func (g *Graph) Eccentricity() int {
	best := 0
	for _, d := range g.dist {
		if int(d) > best {
			best = int(d)
		}
	}
	return best
}

// MaxDegree reports Δ.
func (g *Graph) MaxDegree() int {
	best := 0
	for _, a := range g.adj {
		if len(a) > best {
			best = len(a)
		}
	}
	return best
}

// FromAdjacency builds a Graph from adjacency lists; the lists must be
// symmetric. Distances are computed by BFS from the origin, and every node
// must be reachable.
func FromAdjacency(adj [][]int32, origin int32) (*Graph, error) {
	n := len(adj)
	if n == 0 {
		return nil, fmt.Errorf("graph: no nodes")
	}
	if origin < 0 || int(origin) >= n {
		return nil, fmt.Errorf("graph: origin %d out of range", origin)
	}
	g := &Graph{adj: adj, origin: origin}
	g.rev = make([][]int32, n)
	deg := 0
	for u := range adj {
		g.rev[u] = make([]int32, len(adj[u]))
		for p := range g.rev[u] {
			g.rev[u][p] = -1
		}
		deg += len(adj[u])
	}
	if deg%2 != 0 {
		return nil, fmt.Errorf("graph: asymmetric adjacency (odd port count)")
	}
	g.m = deg / 2
	for u := range adj {
		for p, w := range adj[u] {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: node %d port %d points at %d", u, p, w)
			}
			if g.rev[u][p] >= 0 {
				continue
			}
			found := false
			for q, x := range adj[w] {
				if x == int32(u) && g.rev[w][q] < 0 {
					g.rev[u][p] = int32(q)
					g.rev[w][q] = int32(p)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("graph: edge %d→%d has no reverse port", u, w)
			}
		}
	}
	// BFS distances.
	g.dist = make([]int32, n)
	for i := range g.dist {
		g.dist[i] = -1
	}
	g.dist[origin] = 0
	queue := []int32{origin}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range adj[u] {
			if g.dist[w] < 0 {
				g.dist[w] = g.dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	for v, d := range g.dist {
		if d < 0 {
			return nil, fmt.Errorf("graph: node %d unreachable from origin", v)
		}
	}
	return g, nil
}

// Rect is an axis-aligned obstacle [X0,X1)×[Y0,Y1) in grid coordinates.
type Rect struct {
	X0, Y0, X1, Y1 int
}

func (r Rect) contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Grid describes a width×height grid graph with rectangular obstacles; free
// cells are nodes, orthogonally adjacent free cells are edges. The origin is
// cell (0,0), which must be free. Cells not reachable from the origin are
// dropped (an obstacle may disconnect corners of the grid).
type Grid struct {
	Width, Height int
	Obstacles     []Rect
	// NodeAt maps (x,y) to the node id, or -1 for blocked/unreachable cells.
	NodeAt [][]int32
	// XY[v] recovers the coordinates of node v.
	XY [][2]int16
	G  *Graph
}

// NewGrid builds the grid graph.
func NewGrid(width, height int, obstacles []Rect) (*Grid, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("graph: invalid grid %dx%d", width, height)
	}
	blocked := func(x, y int) bool {
		for _, r := range obstacles {
			if r.contains(x, y) {
				return true
			}
		}
		return false
	}
	if blocked(0, 0) {
		return nil, fmt.Errorf("graph: origin cell (0,0) is blocked")
	}
	gd := &Grid{Width: width, Height: height, Obstacles: obstacles}
	gd.NodeAt = make([][]int32, width)
	for x := range gd.NodeAt {
		gd.NodeAt[x] = make([]int32, height)
		for y := range gd.NodeAt[x] {
			gd.NodeAt[x][y] = -1
		}
	}
	// Flood fill from the origin over free cells.
	type cell struct{ x, y int }
	queue := []cell{{0, 0}}
	gd.NodeAt[0][0] = 0
	gd.XY = append(gd.XY, [2]int16{0, 0})
	dirs := [4]cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, d := range dirs {
			x, y := c.x+d.x, c.y+d.y
			if x < 0 || x >= width || y < 0 || y >= height || blocked(x, y) || gd.NodeAt[x][y] >= 0 {
				continue
			}
			gd.NodeAt[x][y] = int32(len(gd.XY))
			gd.XY = append(gd.XY, [2]int16{int16(x), int16(y)})
			queue = append(queue, cell{x, y})
		}
	}
	adj := make([][]int32, len(gd.XY))
	for v, xy := range gd.XY {
		x, y := int(xy[0]), int(xy[1])
		for _, d := range dirs {
			nx, ny := x+d.x, y+d.y
			if nx < 0 || nx >= width || ny < 0 || ny >= height {
				continue
			}
			if w := gd.NodeAt[nx][ny]; w >= 0 {
				adj[v] = append(adj[v], w)
			}
		}
	}
	g, err := FromAdjacency(adj, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: grid: %w", err)
	}
	gd.G = g
	return gd, nil
}

// RandomGrid builds a width×height grid with nRects random rectangular
// obstacles of side ≤ maxSide, never covering the origin.
func RandomGrid(width, height, nRects, maxSide int, rng *rand.Rand) (*Grid, error) {
	var rects []Rect
	for i := 0; i < nRects; i++ {
		w := 1 + rng.Intn(maxSide)
		h := 1 + rng.Intn(maxSide)
		x := rng.Intn(width)
		y := rng.Intn(height)
		r := Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
		if r.contains(0, 0) {
			continue
		}
		rects = append(rects, r)
	}
	return NewGrid(width, height, rects)
}
