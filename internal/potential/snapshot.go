package potential

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The Potential
// Function Method is memoryless beyond the per-subtree open-edge counts of
// the explored tree (the potential of arXiv:2311.01354 is a function of
// those counts alone), so the checkpoint is k, the seeding flag and those
// counts as the last SelectMoves saw them, indexed by NodeID up to the
// largest node explored then. The move buffer is rewritten every round.
func (p *Potential) SnapshotState(e *snap.Encoder) {
	e.Int(p.k)
	e.Bool(p.seeded)
	if p.restoring {
		e.Int32s(p.restored)
		return
	}
	e.Int32s(p.openCounts())
}

// openCounts returns open[v], the number of dangling edges in the explored
// subtree T(v) as the last SelectMoves saw it, for every v up to the
// largest node explored then. When the world has since applied that
// round, the round is undone first: each reservation explored one edge at
// its node, and the node's newest explored child not yet undone is the
// one it found. Ids are topologically ordered, so one reverse pass folds
// each subtree into its parent after all of its own descendants.
func (p *Potential) openCounts() []int32 {
	v := p.view
	if v == nil {
		return nil
	}
	var open []int32 // −1 marks a node not explored
	for u, seen := tree.NodeID(0), 0; seen < v.ExploredCount(); u++ {
		d := int32(-1)
		if v.Explored(u) {
			seen++
			d = int32(v.DanglingAt(u))
		}
		open = append(open, d)
	}
	if v.Round() != p.decided {
		for _, f := range p.reserved {
			kids := v.ExploredChildren(f)
			undone := int(open[f]) - v.DanglingAt(f)
			open[kids[len(kids)-1-undone]] = -1
			open[f]++
		}
	}
	for len(open) > 0 && open[len(open)-1] < 0 {
		open = open[:len(open)-1]
	}
	for u := len(open) - 1; u > 0; u-- {
		if open[u] < 0 {
			open[u] = 0
			continue
		}
		open[v.Parent(tree.NodeID(u))] += open[u]
	}
	return open
}

// RestoreState implements sim.Snapshotter; p must have been constructed (or
// Reset) for the snapshot's robot count. The counts are only kept for
// re-emission: the world rebuilds its slot index from its own state.
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
	p.restoring = true
	p.view = nil
	return d.Err()
}
