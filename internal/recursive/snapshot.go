package recursive

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Type tags for the recursive Anchored encoding: the instance tree of a
// BFDN_ℓ phase mixes depth-limited core instances (leaves) with divide-depth
// functor nodes, so each serialized child carries its concrete type.
const (
	tagBFDN1  byte = 1
	tagDivide byte = 2
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The whole phase
// instance tree is serialized: each divide-depth node stores its runtime
// team assignment, iteration/phase cursors and travel plans, and each leaf
// stores its depth-limited core.BFDN state (anchor index verbatim), so a
// restored BFDN_ℓ run is byte-identical to an uninterrupted one.
func (b *BFDNL) SnapshotState(e *snap.Encoder, _ *sim.View, _ []sim.ExploreEvent) {
	e.Int(b.k)
	e.Int(b.ell)
	e.Int(b.phaseJ)
	e.Bool(b.ranOnce)
	e.Bool(b.homing)
	encodeAnchored(e, b.top)
}

// RestoreState implements sim.Snapshotter; b must have been constructed for
// the snapshot's k and ℓ. A checkpoint is untrusted input: it refuses
// instances whose type, level or parameters the phase could not have
// built, robots outside [0, k) or listed twice, instance roots and travel
// plans that name nodes v has not explored, and lengths past the bytes
// left; each BFDN₁ leaf checks its own state against v as it decodes.
func (b *BFDNL) RestoreState(d *snap.Decoder, v *sim.View, _ []sim.ExploreEvent) error {
	k := d.Int()
	ell := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != b.k || ell != b.ell {
		return fmt.Errorf("recursive: snapshot is for (k=%d, ℓ=%d), instance has (k=%d, ℓ=%d)", k, ell, b.k, b.ell)
	}
	b.phaseJ = d.Int()
	b.ranOnce = d.Bool()
	b.homing = d.Bool()
	if d.Err() != nil || b.phaseJ < 1 || b.phaseJ > 62 {
		return fmt.Errorf("recursive: corrupt phase %d: %w", b.phaseJ, snap.ErrCorrupt)
	}
	top, err := b.decodeAnchored(d, v, b.ell)
	if err != nil {
		return err
	}
	b.top = top
	b.top1, b.topDD = nil, nil
	switch t := top.(type) {
	case *bfdn1:
		b.top1 = t
	case *divideDepth:
		b.topDD = t
	}
	return d.Err()
}

// s returns the current phase's base step 2^{phaseJ} (budget parameter of
// startPhase), which every instance of the phase shares.
func (b *BFDNL) s() int { return 1 << b.phaseJ }

// encodeAnchored writes one node of the instance tree with a type tag.
func encodeAnchored(e *snap.Encoder, a Anchored) {
	switch t := a.(type) {
	case *bfdn1:
		e.Uint64(uint64(tagBFDN1))
		e.Int(t.b.MaxAnchorDepth())
		e.Ints(t.b.Robots())
		e.Int32(int32(t.b.Root()))
		t.b.SnapshotState(e)
	case *divideDepth:
		e.Uint64(uint64(tagDivide))
		e.Int(t.level)
		e.Int(t.kstar)
		e.Int(t.s)
		e.Ints(t.robots)
		e.Int32(int32(t.root))
		e.Int(t.iter)
		e.Int(int(t.phase))
		e.Bool(t.ranOnce)
		e.Bool(t.seeded)
		e.Int(len(t.children))
		for _, c := range t.children {
			encodeAnchored(e, c)
		}
		e.Int(len(t.plans))
		for i := range t.plans {
			p := &t.plans[i]
			e.Int(p.robot)
			e.Int(len(p.path))
			for _, u := range p.path {
				e.Int32(int32(u))
			}
		}
	default:
		// Unreachable: buildLevel only produces the two types above.
		panic(fmt.Sprintf("recursive: cannot snapshot Anchored of type %T", a))
	}
}

// decodeAnchored reconstructs one node of the instance tree at the given
// level and checks it against v. The phase builds BFDN₁ at level 1 and
// divide-depth above it, every instance with the phase's base step and
// divide-depth with b's k*, so a node that disagrees is corrupt, and so is
// a root or travel-plan node v has not explored. A leaf that has seeded
// holds its robots in its subtree until BFDN_ℓ sends everyone home; one
// that has not checks them when it seeds, since they may still be on
// their way there.
func (b *BFDNL) decodeAnchored(d *snap.Decoder, v *sim.View, level int) (Anchored, error) {
	tag := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch {
	case level == 1 && byte(tag) == tagBFDN1:
		depth := d.Int()
		robots := d.Ints()
		root := tree.NodeID(d.Int32())
		if d.Err() != nil || depth != b.s() || !v.Explored(root) || !b.robotSet(robots) {
			return nil, fmt.Errorf("recursive: corrupt BFDN₁ node header (root %d): %w", root, snap.ErrCorrupt)
		}
		a := newBFDN1(robots, root, depth)
		if err := a.b.RestoreState(d, v); err != nil {
			return nil, err
		}
		if a.b.Seeded() && !b.homing {
			if err := a.b.CheckRobots(v); err != nil {
				return nil, fmt.Errorf("%w: %w", err, snap.ErrCorrupt)
			}
		}
		return a, nil
	case level > 1 && byte(tag) == tagDivide:
		lv := d.Int()
		kstar := d.Int()
		s := d.Int()
		robots := d.Ints()
		root := tree.NodeID(d.Int32())
		if d.Err() != nil || lv != level || kstar != b.kstar || s != b.s() || !v.Explored(root) || !b.robotSet(robots) {
			return nil, fmt.Errorf("recursive: corrupt divide-depth node header (root %d): %w", root, snap.ErrCorrupt)
		}
		dd := newDivideDepth(level, robots, root, s, kstar)
		dd.iter = d.Int()
		dd.phase = dPhase(d.Int())
		dd.ranOnce = d.Bool()
		dd.seeded = d.Bool()
		if d.Err() != nil || dd.phase < 0 || dd.phase > phaseDone {
			return nil, fmt.Errorf("recursive: corrupt divide-depth phase: %w", snap.ErrCorrupt)
		}
		nc := d.Int()
		if d.Err() != nil || nc < 0 || nc > len(robots) {
			return nil, fmt.Errorf("recursive: corrupt child count %d: %w", nc, snap.ErrCorrupt)
		}
		for i := 0; i < nc; i++ {
			c, err := b.decodeAnchored(d, v, level-1)
			if err != nil {
				return nil, err
			}
			dd.children = append(dd.children, c)
		}
		np := d.Int()
		if d.Err() != nil || np < 0 || np > len(robots) {
			return nil, fmt.Errorf("recursive: corrupt travel plan count %d: %w", np, snap.ErrCorrupt)
		}
		planned := make([]int, 0, np)
		for i := 0; i < np; i++ {
			robot := d.Int()
			m := d.Int()
			if d.Err() != nil || m < 0 || m > d.Rest() {
				return nil, fmt.Errorf("recursive: corrupt travel plan: %w", snap.ErrCorrupt)
			}
			path := make([]tree.NodeID, 0, m)
			for j := 0; j < m; j++ {
				u := tree.NodeID(d.Int32())
				if !v.Explored(u) {
					return nil, fmt.Errorf("recursive: travel plan of robot %d names unexplored node %d: %w", robot, u, snap.ErrCorrupt)
				}
				path = append(path, u)
			}
			dd.plans = append(dd.plans, travelPlan{robot: robot, path: path})
			planned = append(planned, robot)
		}
		if !b.robotSet(planned) {
			return nil, fmt.Errorf("recursive: corrupt travel plan robots: %w", snap.ErrCorrupt)
		}
		return dd, nil
	default:
		return nil, fmt.Errorf("recursive: Anchored type tag %d is not an instance of level %d: %w", tag, level, snap.ErrCorrupt)
	}
}

// robotSet reports whether robots are distinct ids in [0, k).
func (b *BFDNL) robotSet(robots []int) bool {
	seen := make([]bool, b.k)
	for _, r := range robots {
		if r < 0 || r >= b.k || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}
