package potential

import (
	"fmt"

	"bfdn/internal/snap"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The Potential
// Function Method is memoryless beyond the per-subtree open-edge counts of
// the explored tree (the potential of arXiv:2311.01354 is a function of
// those counts alone), so the checkpoint is k, the seeding flag and those
// counts, indexed by NodeID up to the largest explored node. They are
// derived from the slot index here; the move buffer is rewritten every
// round.
func (p *Potential) SnapshotState(e *snap.Encoder) {
	e.Int(p.k)
	e.Bool(p.seeded)
	if p.rebuild {
		e.Int32s(p.restored)
		return
	}
	e.Int32s(p.openCounts())
}

// openCounts returns open[v], the number of dangling edges in the explored
// subtree T(v), for every v up to the largest explored node. Elements are
// numbered parents first, so one reverse pass folds each subtree into its
// parent after all of its own descendants.
func (p *Potential) openCounts() []int32 {
	n := 0
	for _, en := range p.elems {
		n = max(n, int(en.node)+1)
	}
	open := make([]int32, n)
	for e, en := range p.elems {
		open[en.node] = p.slots.Weight(int32(e))
	}
	for e := len(p.elems) - 1; e > 0; e-- {
		en := p.elems[e]
		open[p.elems[en.up].node] += open[en.node]
	}
	return open
}

// RestoreState implements sim.Snapshotter; p must have been constructed (or
// Reset) for the snapshot's robot count. The slot index is rebuilt from the
// view on the next SelectMoves.
func (p *Potential) RestoreState(d *snap.Decoder) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != p.k {
		return fmt.Errorf("potential: snapshot is for k=%d, instance has k=%d", k, p.k)
	}
	p.seeded = d.Bool()
	p.restored = append(p.restored[:0], d.Int32s()...)
	p.rebuild = true
	return d.Err()
}
