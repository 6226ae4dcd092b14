package potential

import (
	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/teams"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The Potential
// Function Method is memoryless beyond the per-subtree open-edge counts of
// the explored tree (the potential of arXiv:2311.01354 is a function of
// those counts alone), so the checkpoint is the count-only one CTE and
// Tree-Mining write too (teams.SnapshotCounts). The move buffer is
// rewritten every round.
func (p *Potential) SnapshotState(e *snap.Encoder, v *sim.View, pending []sim.ExploreEvent) {
	teams.SnapshotCounts(e, p.k, v, pending)
}

// RestoreState implements sim.Snapshotter; p must have been constructed (or
// Reset) for the snapshot's robot count. The rule reads nothing back: the
// world rebuilds its slot index from its own state, and the counts are
// only checked against it (teams.RestoreCounts).
func (p *Potential) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	_, err := teams.RestoreCounts(d, "potential", p.k, v, pending)
	return err
}
