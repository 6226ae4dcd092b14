package treemining

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). Tree-Mining's
// cross-round memory is the per-subtree open-edge reserve (the quantity its
// largest-remainder split is computed from each round) and the seeding
// flag; the grouping and target buffers are rebuilt from the view every
// round and are skipped.
func (t *TreeMining) SnapshotState(e *snap.Encoder, _ *sim.View, _ []sim.ExploreEvent) {
	e.Int(t.k)
	t.open.Snapshot(e)
}

// RestoreState implements sim.Snapshotter; t must have been constructed (or
// Reset) for the snapshot's robot count. Counts the world does not imply
// are refused (teams.Counts.Restore).
func (t *TreeMining) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != t.k {
		return fmt.Errorf("treemining: snapshot is for k=%d, instance has k=%d", k, t.k)
	}
	return t.open.Restore(d, v, pending)
}
