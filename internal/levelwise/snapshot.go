package levelwise

import (
	"fmt"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The open list
// is written as (node, dangling count) entries: the open nodes in the order
// a phase start would assign them, shallowest first and by id within a
// depth, so the bytes depend only on the decision state. Sorting the
// buckets for it does what the next phase start would do, so it changes no
// decision. A restored state not yet resumed writes its decoded entries
// back verbatim. Per-robot phase plans (remaining descent path, the node to
// explore, the trip home) are stored verbatim.
func (l *Levelwise) SnapshotState(e *snap.Encoder) {
	e.Int(l.k)
	e.Bool(l.seeded)
	e.Int(l.Phases)
	if !l.restored {
		l.entries = l.entries[:0]
		for d := range l.buckets {
			for _, node := range l.live(d) {
				if c := l.count[node]; c > 0 {
					l.entries = append(l.entries, entry{node, c})
				}
			}
		}
	}
	e.Int(len(l.entries))
	for _, en := range l.entries {
		e.Int32(int32(en.node))
		e.Int(int(en.count))
	}
	for i := range l.plans {
		p := &l.plans[i]
		e.Int(len(p.down))
		for _, u := range p.down {
			e.Int32(int32(u))
		}
		e.Int32(int32(p.explore))
		e.Int(p.up)
	}
}

// RestoreState implements sim.Snapshotter; l must have been constructed for
// the snapshot's robot count. It refuses negative nodes and counts; the
// next SelectMoves checks every node against the view before using it.
func (l *Levelwise) RestoreState(d *snap.Decoder) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != l.k {
		return fmt.Errorf("levelwise: snapshot is for k=%d, instance has k=%d", k, l.k)
	}
	l.Reset(k)
	l.seeded = d.Bool()
	l.Phases = d.Int()
	n := d.Int()
	if d.Err() != nil || n < 0 || n > d.Rest() {
		return fmt.Errorf("levelwise: corrupt open-list length %d", n)
	}
	for i := 0; i < n; i++ {
		en := entry{node: tree.NodeID(d.Int32()), count: d.Int32()}
		if d.Err() != nil || en.node < 0 || en.count < 0 {
			return fmt.Errorf("levelwise: corrupt open-list entry (%d, %d)", en.node, en.count)
		}
		l.entries = append(l.entries, en)
	}
	for i := range l.plans {
		p := &l.plans[i]
		m := d.Int()
		if d.Err() != nil || m < 0 || m > d.Rest() {
			return fmt.Errorf("levelwise: corrupt plan for robot %d", i)
		}
		for j := 0; j < m; j++ {
			u := tree.NodeID(d.Int32())
			if u < 0 {
				return fmt.Errorf("levelwise: robot %d: corrupt path node %d", i, u)
			}
			p.down = append(p.down, u)
		}
		p.explore = tree.NodeID(d.Int32())
		p.up = d.Int()
		if p.explore < tree.Nil {
			return fmt.Errorf("levelwise: robot %d: corrupt target node %d", i, p.explore)
		}
	}
	l.restored = true
	return d.Err()
}
