package core

import (
	"fmt"
	"math/bits"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30) for the
// whole-tree Algorithm adapter. Configuration (policy, anchor-depth limit,
// flags) is not serialized: a checkpoint must be restored into an instance
// constructed with the same options, mirroring the Reset contract.
// The RandomOpen policy cannot be checkpointed (its rand.Rand stream is not
// serializable); RestoreState rejects it.
func (a *Algorithm) SnapshotState(e *snap.Encoder, _ *sim.View, _ []sim.ExploreEvent) {
	a.b.SnapshotState(e)
}

// RestoreState implements sim.Snapshotter. The whole-tree instance is
// rooted at the tree's root, so all its robots stand in its subtree; a
// checkpoint that names another root is refused.
func (a *Algorithm) RestoreState(d *snap.Decoder, v *sim.View, _ []sim.ExploreEvent) error {
	if err := a.b.RestoreState(d, v); err != nil {
		return err
	}
	if a.b.root != tree.Root {
		return fmt.Errorf("core: snapshot root %d is not the tree's root: %w", a.b.root, snap.ErrCorrupt)
	}
	return nil
}

// SnapshotState serializes the instance's cross-round state: robot set,
// root, per-robot excursion state, statistics, and the anchor index
// verbatim. The index's lazy heaps are written in array order — their
// sift history is what breaks load ties, so the heap is never rebuilt on
// restore; replaying it byte-for-byte is what keeps a resumed run
// byte-identical to an uninterrupted one.
func (b *BFDN) SnapshotState(e *snap.Encoder) {
	e.Ints(b.robots)
	e.Int32(int32(b.root))
	e.Int(b.rootDepth)
	e.Bool(b.seeded)
	for j := range b.rs {
		st := &b.rs[j]
		e.Int32(int32(st.anchor))
		e.Int(st.anchorDepth)
		e.Int(len(st.stack))
		for _, u := range st.stack {
			e.Int32(int32(u))
		}
		e.Int(st.excRounds)
		e.Int(st.excExplored)
		e.Bool(st.everMoved)
	}
	e.Ints(b.stats.ReanchorsPerDepth)
	e.Int(len(b.stats.Excursions))
	for _, x := range b.stats.Excursions {
		e.Int(x.Robot)
		e.Int(x.Depth)
		e.Int(x.Rounds)
		e.Int(x.Explored)
	}
	e.Int(b.stats.IdleSelections)
	b.idx.Snapshot(e)
}

// RestoreState restores a checkpoint written by SnapshotState into b, which
// must have been constructed (or Reset) with the same configuration and
// robot count, and checks it against v as it decodes. Buffers are reused
// where capacity allows. A checkpoint is untrusted input: a robot out of
// range or listed twice, a root, anchor, BF stack node or open node the
// view has not explored, a depth that disagrees with the view's (an open
// node filed under another depth would be closed in the wrong bucket), an
// open node outside the instance's subtree (a re-anchoring walk up from it
// would never meet the root), and a length past the bytes left are errors.
// The robots' positions are not checked here: a BFDN_ℓ instance may be
// restored while its robots are still on their way into its subtree, so
// seeding checks them, and BFDN_ℓ checks those of a seeded instance
// (CheckRobots).
func (b *BFDN) RestoreState(d *snap.Decoder, v *sim.View) error {
	if b.policy == RandomOpen {
		return fmt.Errorf("core: the RandomOpen policy cannot be restored from a checkpoint")
	}
	robots := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if len(robots) != len(b.rs) {
		return fmt.Errorf("core: snapshot has %d robots, instance has %d", len(robots), len(b.rs))
	}
	for _, r := range robots {
		if r < 0 || r >= v.K() {
			return fmt.Errorf("core: snapshot robot %d is out of range for %d robots: %w", r, v.K(), snap.ErrCorrupt)
		}
	}
	b.robots = append(b.robots[:0], robots...)
	b.isMine.setBits(b.robots)
	distinct := 0
	for _, w := range b.isMine {
		distinct += bits.OnesCount64(w)
	}
	if distinct != len(b.robots) {
		return fmt.Errorf("core: snapshot robot set lists a robot twice: %w", snap.ErrCorrupt)
	}
	b.root = tree.NodeID(d.Int32())
	b.rootDepth = d.Int()
	b.seeded = d.Bool()
	if d.Err() != nil || !v.Explored(b.root) || b.seeded && v.DepthOf(b.root) != b.rootDepth {
		return fmt.Errorf("core: snapshot root %d at depth %d is not an explored node there: %w", b.root, b.rootDepth, snap.ErrCorrupt)
	}
	for j := range b.rs {
		st := &b.rs[j]
		st.anchor = tree.NodeID(d.Int32())
		st.anchorDepth = d.Int()
		n := d.Int()
		if d.Err() != nil || n < 0 || n > d.Rest() {
			return fmt.Errorf("core: corrupt BF stack for robot slot %d: %w", j, snap.ErrCorrupt)
		}
		if !v.Explored(st.anchor) || b.seeded && (st.anchorDepth < 0 || v.DepthOf(st.anchor) != b.rootDepth+st.anchorDepth) {
			return fmt.Errorf("core: snapshot anchor %d of robot %d is not an explored node at relative depth %d: %w", st.anchor, b.robots[j], st.anchorDepth, snap.ErrCorrupt)
		}
		st.stack = st.stack[:0]
		for i := 0; i < n; i++ {
			u := tree.NodeID(d.Int32())
			if !v.Explored(u) {
				return fmt.Errorf("core: snapshot BF stack of robot %d names unexplored node %d: %w", b.robots[j], u, snap.ErrCorrupt)
			}
			st.stack = append(st.stack, u)
		}
		st.excRounds = d.Int()
		st.excExplored = d.Int()
		st.everMoved = d.Bool()
	}
	b.stats.ReanchorsPerDepth = append(b.stats.ReanchorsPerDepth[:0], d.Ints()...)
	nx := d.Int()
	if d.Err() != nil || nx < 0 || nx > d.Rest() {
		return fmt.Errorf("core: corrupt excursion log length %d: %w", nx, snap.ErrCorrupt)
	}
	b.stats.Excursions = b.stats.Excursions[:0]
	for i := 0; i < nx; i++ {
		b.stats.Excursions = append(b.stats.Excursions, Excursion{
			Robot:    d.Int(),
			Depth:    d.Int(),
			Rounds:   d.Int(),
			Explored: d.Int(),
		})
	}
	b.stats.IdleSelections = d.Int()
	if err := b.idx.Restore(d); err != nil {
		return err
	}
	rd := v.DepthOf(b.root)
	for dd := 0; dd < b.idx.Depths(); dd++ {
		for _, u := range b.idx.Members(dd) {
			if !v.Explored(u) || v.DepthOf(u) != rd+dd || !b.within(v, u) {
				return fmt.Errorf("core: snapshot open node %d is not an explored node at relative depth %d under %d: %w", u, dd, b.root, snap.ErrCorrupt)
			}
		}
	}
	return d.Err()
}
