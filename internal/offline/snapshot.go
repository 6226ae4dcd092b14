package offline

import (
	"bfdn/internal/sim"
	"bfdn/internal/snap"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). Online DFS is
// stateless — every round is decided from the view alone — so its
// checkpoint is empty by construction.
func (DFS) SnapshotState(*snap.Encoder, *sim.View, []sim.ExploreEvent) {}

// RestoreState implements sim.Snapshotter; there is nothing to restore.
func (DFS) RestoreState(*snap.Decoder, *sim.View, []sim.ExploreEvent) error { return nil }
