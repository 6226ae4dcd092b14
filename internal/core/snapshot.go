package core

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30) for the
// whole-tree Algorithm adapter. Configuration (policy, anchor-depth limit,
// flags) is not serialized: a checkpoint must be restored into an instance
// constructed with the same options, mirroring the Reset/Recycle contract.
// The RandomOpen policy cannot be checkpointed (its rand.Rand stream is not
// serializable); RestoreState rejects it.
func (a *Algorithm) SnapshotState(e *snap.Encoder) { a.b.SnapshotState(e) }

// RestoreState implements sim.Snapshotter.
func (a *Algorithm) RestoreState(d *snap.Decoder) error { return a.b.RestoreState(d) }

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
// robot count. Buffers are reused where capacity allows. It refuses
// negative robots and nodes and lengths past the bytes left; the next
// DecideAllowed checks the rest against the view before using it.
func (b *BFDN) RestoreState(d *snap.Decoder) error {
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
		if r < 0 {
			return fmt.Errorf("core: snapshot has negative robot id %d", r)
		}
	}
	b.robots = append(b.robots[:0], robots...)
	b.root = tree.NodeID(d.Int32())
	b.rootDepth = d.Int()
	b.seeded = d.Bool()
	if b.root < 0 {
		return fmt.Errorf("core: corrupt root %d", b.root)
	}
	for j := range b.rs {
		st := &b.rs[j]
		st.anchor = tree.NodeID(d.Int32())
		st.anchorDepth = d.Int()
		n := d.Int()
		if d.Err() != nil || st.anchor < 0 || n < 0 || n > d.Rest() {
			return fmt.Errorf("core: corrupt anchor or BF stack for robot slot %d", j)
		}
		st.stack = st.stack[:0]
		for i := 0; i < n; i++ {
			u := tree.NodeID(d.Int32())
			if u < 0 {
				return fmt.Errorf("core: robot slot %d: corrupt BF stack node %d", j, u)
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
		return fmt.Errorf("core: corrupt excursion log length %d", nx)
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
	b.restored = true
	if err := b.idx.Restore(d); err != nil {
		return err
	}
	return d.Err()
}
