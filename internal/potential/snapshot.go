package potential

import (
	"fmt"
	"slices"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/teams"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The Potential
// Function Method is memoryless beyond the per-subtree open-edge counts of
// the explored tree (the potential of arXiv:2311.01354 is a function of
// those counts alone), so the checkpoint is k, whether a round has run,
// and those counts as the last SelectMoves saw them: the world's, with the
// pending explores of that round undone (teams.OpenCounts), none before the
// first round. The move buffer is rewritten every round.
func (p *Potential) SnapshotState(e *snap.Encoder, v *sim.View, pending []sim.ExploreEvent) {
	e.Int(p.k)
	e.Bool(v.Round() > 0)
	e.Int32s(openCounts(v, pending))
}

// openCounts returns the counts a checkpoint at v's round holds.
func openCounts(v *sim.View, pending []sim.ExploreEvent) []int32 {
	if v.Round() == 0 {
		return nil
	}
	return teams.OpenCounts(v, pending)
}

// RestoreState implements sim.Snapshotter; p must have been constructed (or
// Reset) for the snapshot's robot count. The rule reads nothing back: the
// world rebuilds its slot index from its own state. A checkpoint whose
// flag or counts are not the ones SnapshotState derives from the world is
// refused with snap.ErrCorrupt.
func (p *Potential) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != p.k {
		return fmt.Errorf("potential: snapshot is for k=%d, instance has k=%d", k, p.k)
	}
	ran, counts := d.Bool(), d.Int32s()
	if err := d.Err(); err != nil {
		return err
	}
	if ran != (v.Round() > 0) || !slices.Equal(counts, openCounts(v, pending)) {
		return fmt.Errorf("potential: open counts disagree with the world at round %d: %w", v.Round(), snap.ErrCorrupt)
	}
	return nil
}
