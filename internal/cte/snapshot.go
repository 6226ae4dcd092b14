package cte

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). CTE's only
// cross-round memory is the per-subtree open-edge counts and the seeding
// flag; the grouping and target buffers are rebuilt from the view every
// round and are skipped.
func (c *CTE) SnapshotState(e *snap.Encoder, _ *sim.View, _ []sim.ExploreEvent) {
	e.Int(c.k)
	c.open.Snapshot(e)
}

// RestoreState implements sim.Snapshotter; c must have been constructed (or
// Reset) for the snapshot's robot count. Counts the world does not imply
// are refused (teams.Counts.Restore).
func (c *CTE) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != c.k {
		return fmt.Errorf("cte: snapshot is for k=%d, instance has k=%d", k, c.k)
	}
	return c.open.Restore(d, v, pending)
}
