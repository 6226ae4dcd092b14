// Package recursive implements §5 of the paper: the anchor-based algorithm
// framework, the divide-depth functor 𝒟, and the recursive family BFDN_ℓ
// with its doubling depth schedule (Definition 13), achieving
//
//	T ≤ 4n/k^{1/ℓ} + 2^{ℓ+1}(ℓ+1+min{log Δ, log k / ℓ})·D^{1+1/ℓ}
//
// rounds (Theorem 10).
//
// An anchor-based algorithm 𝒜(k*, k, d) explores with k robots, pushing
// anchors to (relative) depth d while maintaining the invariants of
// Appendix B; the central one, Open Node Coverage, guarantees that the open
// subtrees at interruption are rooted at the anchors of the still-active
// robots, so the divide-depth functor can restrict the next iteration to
// those subtrees.
package recursive

import (
	"bfdn/internal/core"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// RobotAnchor pairs an active robot with its (slid) anchor, the root of the
// open subtree it is responsible for.
type RobotAnchor struct {
	Robot  int
	Anchor tree.NodeID
}

// Anchored is the anchor-based algorithm interface of §5. One instance
// controls a fixed set of robots on the subtree of its root.
type Anchored interface {
	// Step selects this round's moves for the controlled robots (moves is
	// indexed by global robot id; untouched entries belong to other robots).
	Step(v *sim.View, events []sim.ExploreEvent, moves []sim.Move) error
	// ActiveCount reports the number of active robots (§5: away from the
	// instance root, or anchored at an open node).
	ActiveCount(v *sim.View) int
	// ActiveAnchors appends (robot, slid anchor) pairs for the active robots:
	// the anchor slid down to the instance's current depth boundary along the
	// robot's position path (the §5 re-anchoring modification).
	ActiveAnchors(v *sim.View, out []RobotAnchor) []RobotAnchor
}

// bfdn1 adapts a depth-limited core.BFDN instance (BFDN₁(k, k, d)) to the
// Anchored interface.
type bfdn1 struct {
	b *core.BFDN
}

var _ Anchored = (*bfdn1)(nil)

// newBFDN1 builds BFDN₁ on the subtree of root with the given robots and a
// relative anchor-depth budget d.
func newBFDN1(robots []int, root tree.NodeID, d int) *bfdn1 {
	return &bfdn1{b: core.NewInstance(robots, root, core.WithMaxAnchorDepth(d))}
}

func (a *bfdn1) Step(v *sim.View, events []sim.ExploreEvent, moves []sim.Move) error {
	return a.b.Decide(v, events, moves)
}

func (a *bfdn1) ActiveCount(v *sim.View) int {
	// While shallow work remains, every robot is active in the §5 sense:
	// robots at the root are about to be re-anchored (Shallow Activity
	// invariant). Afterwards, only robots away from the instance root are
	// active (the solo depth-next explorers of Claim 5).
	if !a.b.ShallowDone() {
		return len(a.b.Robots())
	}
	n := 0
	for _, r := range a.b.Robots() {
		if v.Pos(r) != a.b.Root() {
			n++
		}
	}
	return n
}

func (a *bfdn1) ActiveAnchors(v *sim.View, out []RobotAnchor) []RobotAnchor {
	root := a.b.Root()
	limitAbs := v.DepthOf(root) + a.b.MaxAnchorDepth()
	shallow := !a.b.ShallowDone()
	for j, r := range a.b.Robots() {
		if v.Pos(r) == root && a.b.Anchor(j) == root && !a.b.InBF(j) {
			if shallow {
				// Between excursions while shallow work remains: the robot
				// is active in the §5 sense and its responsibility is the
				// whole instance subtree. Emitting it keeps ActiveAnchors a
				// complete Open Node Coverage certificate; it can never
				// become a next-iteration root because interruptions only
				// happen once the instance is past its shallow phase.
				out = append(out, RobotAnchor{Robot: r, Anchor: root})
			}
			continue
		}
		if shallow {
			// While shallow work remains, the robot's actual anchor is its
			// responsibility (Open Node Coverage over T(v_i)).
			out = append(out, RobotAnchor{Robot: r, Anchor: a.b.Anchor(j)})
			continue
		}
		// Shallow phase over (the only time interrupts can happen): slide
		// the anchor to the depth boundary along the robot's path — §5's
		// re-anchoring modification, which makes the interrupted robots'
		// anchors the roots of the remaining open subtrees. For a robot
		// still in BF descent use its target anchor, otherwise its position.
		x := v.Pos(r)
		if a.b.InBF(j) {
			x = a.b.Anchor(j)
		}
		out = append(out, RobotAnchor{Robot: r, Anchor: ancestorAtDepth(v, x, limitAbs)})
	}
	return out
}

// ancestorAtDepth returns the ancestor of x at absolute depth d (x itself if
// it is not deeper than d).
func ancestorAtDepth(v *sim.View, x tree.NodeID, d int) tree.NodeID {
	for v.DepthOf(x) > d {
		x = v.Parent(x)
	}
	return x
}
