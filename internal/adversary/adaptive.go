package adversary

import (
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Remark 8 of the paper suggests a stronger adversary "that observes the
// moves that the robots have selected before choosing which robots to
// block". This file holds the state-adaptive adversaries that NewAdaptive
// runs: before each round the adversary inspects the online view
// (positions, dangling edges) and picks the robots to stall, under a
// per-round blocking budget.

// Adaptive chooses, per round, which robots to block after observing the
// exploration state. Implementations must not mutate the view.
type Adaptive interface {
	// Block returns the set of robots to stall this round (at most its
	// budget); robots absent from the map may move.
	Block(v *sim.View, round int) map[int]bool
}

// BlockExplorers stalls up to Max robots that stand next to a dangling edge
// — the robots about to make progress. The most damaging simple policy:
// it converts exploration rounds into pure waiting.
type BlockExplorers struct {
	Max int
}

var _ Adaptive = (*BlockExplorers)(nil)

// Block implements Adaptive.
func (b *BlockExplorers) Block(v *sim.View, _ int) map[int]bool {
	blocked := make(map[int]bool, b.Max)
	for i := 0; i < v.K() && len(blocked) < b.Max; i++ {
		if v.UnreservedDanglingAt(v.Pos(i)) > 0 {
			blocked[i] = true
		}
	}
	return blocked
}

// BlockDeepest stalls the Max robots farthest from the root, delaying every
// return trip (and hence all re-anchoring decisions).
type BlockDeepest struct {
	Max int
}

var _ Adaptive = (*BlockDeepest)(nil)

// Block implements Adaptive.
func (b *BlockDeepest) Block(v *sim.View, _ int) map[int]bool {
	type cand struct {
		robot, depth int
	}
	var cands []cand
	for i := 0; i < v.K(); i++ {
		if d := v.DepthOf(v.Pos(i)); d > 0 {
			cands = append(cands, cand{robot: i, depth: d})
		}
	}
	// Selection by partial sort: budgets are tiny.
	blocked := make(map[int]bool, b.Max)
	for len(blocked) < b.Max && len(cands) > 0 {
		best := 0
		for j := range cands {
			if cands[j].depth > cands[best].depth {
				best = j
			}
		}
		blocked[cands[best].robot] = true
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return blocked
}

// BlockReturners stalls up to Max robots that are heading home (no dangling
// at their node), starving the root of planner-relevant returns without
// ever blocking actual exploration — a low-damage control policy used to
// contrast with BlockExplorers.
type BlockReturners struct {
	Max int
}

var _ Adaptive = (*BlockReturners)(nil)

// Block implements Adaptive.
func (b *BlockReturners) Block(v *sim.View, _ int) map[int]bool {
	blocked := make(map[int]bool, b.Max)
	for i := 0; i < v.K() && len(blocked) < b.Max; i++ {
		pos := v.Pos(i)
		if pos != tree.Root && v.UnreservedDanglingAt(pos) == 0 {
			blocked[i] = true
		}
	}
	return blocked
}
