// Package offline provides the offline baselines of §1 of the paper: the
// 2(n/k + D) segment-splitting offline algorithm of Dynia et al. [7] /
// Ortolf–Schindelhauer [13], and the classic single-robot online DFS. The
// matching lower bound max{2n/k, 2D} is bounds.OfflineLB.
package offline

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// EulerTour returns the depth-first Euler tour of the tree as a node
// sequence of length 2(n−1)+1, starting and ending at the root.
func EulerTour(t *tree.Tree) []tree.NodeID {
	tour := make([]tree.NodeID, 0, 2*t.N()-1)
	// Iterative DFS with explicit child cursors.
	cursor := make([]int, t.N())
	v := tree.Root
	tour = append(tour, v)
	for {
		if cursor[v] < t.NumChildren(v) {
			v = t.Children(v)[cursor[v]]
			cursor[t.Parent(v)]++
			tour = append(tour, v)
			continue
		}
		if v == tree.Root {
			return tour
		}
		v = t.Parent(v)
		tour = append(tour, v)
	}
}

// SplitDFSResult describes the offline segment-splitting schedule.
type SplitDFSResult struct {
	// Rounds is the makespan: every robot reaches its segment start along a
	// shortest path, traverses its segment, and returns home along a
	// shortest path; robots operate in parallel.
	Rounds int
	// PerRobot is each robot's individual cost.
	PerRobot []int
}

// SplitDFS computes the offline algorithm of [7, 13]: cut the Euler tour of
// length 2(n−1) into k segments of length ⌈2(n−1)/k⌉ and assign one robot to
// reach, traverse, and return from each segment. Its makespan is at most
// 2(n/k + D) + O(1), within a factor 2 of the lower bound.
func SplitDFS(t *tree.Tree, k int) (SplitDFSResult, error) {
	if k < 1 {
		return SplitDFSResult{}, fmt.Errorf("offline: need k ≥ 1, got %d", k)
	}
	res := SplitDFSResult{PerRobot: make([]int, k)}
	if t.N() == 1 {
		return res, nil
	}
	tour := EulerTour(t)
	m := len(tour) - 1 // 2(n−1) tour edges
	segLen := (m + k - 1) / k
	for i := 0; i < k; i++ {
		lo := i * segLen
		if lo >= m {
			break
		}
		hi := lo + segLen
		if hi > m {
			hi = m
		}
		start, end := tour[lo], tour[hi]
		cost := t.DepthOf(start) + (hi - lo) + t.DepthOf(end)
		res.PerRobot[i] = cost
		if cost > res.Rounds {
			res.Rounds = cost
		}
	}
	return res, nil
}

// DFS is the single-robot online depth-first search as a sim.Algorithm:
// robot 0 traverses an adjacent unexplored edge when possible and moves up
// otherwise; any other robots stay at the root. It completes in exactly
// 2(n−1) rounds. The zero value is ready to use; the move buffer is built
// lazily on the first round and reused thereafter, so a run allocates once,
// not once per round.
type DFS struct {
	moves []sim.Move
}

var _ sim.Algorithm = (*DFS)(nil)

// SelectMoves implements sim.Algorithm.
func (d *DFS) SelectMoves(v *sim.View, _ []sim.ExploreEvent) ([]sim.Move, error) {
	if cap(d.moves) < v.K() {
		d.moves = make([]sim.Move, v.K())
	}
	moves := d.moves[:v.K()]
	for i := range moves {
		moves[i] = sim.Move{Kind: sim.Stay}
	}
	pos := v.Pos(0)
	if tk, ok := v.ReserveDangling(pos); ok {
		moves[0] = sim.Move{Kind: sim.Explore, Ticket: tk}
	} else if pos != tree.Root {
		moves[0] = sim.Move{Kind: sim.Up}
	}
	return moves, nil
}
