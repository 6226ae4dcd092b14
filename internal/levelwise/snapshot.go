package levelwise

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// SnapshotState implements sim.Snapshotter (DESIGN.md S30). The open list
// is written as (node, dangling count) entries: the open nodes in the order
// a phase start would assign them, shallowest first and by id within a
// depth, so the bytes depend only on the decision state. Sorting the
// buckets for it does what the next phase start would do, so it changes no
// decision. Per-robot phase plans (remaining descent path, the node to
// explore, the trip home) are stored verbatim.
func (l *Levelwise) SnapshotState(e *snap.Encoder, _ *sim.View, _ []sim.ExploreEvent) {
	e.Int(l.k)
	e.Bool(l.seeded)
	e.Int(l.Phases)
	open := 0
	for d := range l.buckets {
		for _, node := range l.live(d) {
			if l.count[node] > 0 {
				open++
			}
		}
	}
	e.Int(open)
	for d := range l.buckets {
		for _, node := range l.live(d) {
			if c := l.count[node]; c > 0 {
				e.Int32(int32(node))
				e.Int(int(c))
			}
		}
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
// the snapshot's robot count. It files the open list in its buckets as it
// decodes it. A checkpoint is untrusted input: a node v has not explored,
// an open node listed twice, a negative count, a length past the bytes
// left and an open list that the world does not imply (checkOpen) are
// errors.
func (l *Levelwise) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
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
		return fmt.Errorf("levelwise: corrupt open-list length %d: %w", n, snap.ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		node, count := tree.NodeID(d.Int32()), d.Int32()
		if d.Err() != nil || !v.Explored(node) || count < 0 {
			return fmt.Errorf("levelwise: open-list entry (%d, %d) names an unexplored node or a negative count: %w", node, count, snap.ErrCorrupt)
		}
		if int(node) < len(l.count) && l.count[node] > 0 {
			return fmt.Errorf("levelwise: open node %d is listed twice: %w", node, snap.ErrCorrupt)
		}
		l.addOpen(v, node, int(count))
	}
	if err := l.checkOpen(v, pending); err != nil {
		return err
	}
	for i := range l.plans {
		p := &l.plans[i]
		m := d.Int()
		if d.Err() != nil || m < 0 || m > d.Rest() {
			return fmt.Errorf("levelwise: corrupt plan for robot %d: %w", i, snap.ErrCorrupt)
		}
		for j := 0; j < m; j++ {
			u := tree.NodeID(d.Int32())
			if !v.Explored(u) {
				return fmt.Errorf("levelwise: path of robot %d names unexplored node %d: %w", i, u, snap.ErrCorrupt)
			}
			p.down = append(p.down, u)
		}
		p.explore = tree.NodeID(d.Int32())
		p.up = d.Int()
		if p.explore != tree.Nil && !v.Explored(p.explore) {
			return fmt.Errorf("levelwise: target of robot %d is unexplored node %d: %w", i, p.explore, snap.ErrCorrupt)
		}
	}
	return d.Err()
}

// checkOpen refuses an open list that the world does not imply. Levelwise
// seeds the list in its first round, and at a checkpoint it has folded in
// every explore but the pending ones. So before round 1 the list is empty;
// after it, an explored node's count is its dangling edges plus the pending
// explores at it, except that a pending explore's child is not listed yet.
// An earlier encoding also wrote closed nodes with count 0, which addOpen
// skips, so they pass.
func (l *Levelwise) checkOpen(v *sim.View, pending []sim.ExploreEvent) error {
	if l.seeded != (v.Round() > 0) {
		return fmt.Errorf("levelwise: open list seeded=%v at round %d: %w", l.seeded, v.Round(), snap.ErrCorrupt)
	}
	var want []int32
	if l.seeded {
		for u, seen := tree.NodeID(0), 0; seen < v.ExploredCount(); u++ {
			c := int32(0)
			if v.Explored(u) {
				seen++
				c = int32(v.DanglingAt(u))
			}
			want = append(want, c)
		}
		for _, e := range pending {
			want[e.Child] = 0
			want[e.Parent]++
		}
	}
	for u := range max(len(want), len(l.count)) {
		var got, exp int32
		if u < len(l.count) {
			got = l.count[u]
		}
		if u < len(want) {
			exp = want[u]
		}
		if got != exp {
			return fmt.Errorf("levelwise: open list gives node %d count %d, the world implies %d: %w", u, got, exp, snap.ErrCorrupt)
		}
	}
	return nil
}
