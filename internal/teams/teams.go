// Package teams holds what CTE (internal/cte) and Tree-Mining
// (internal/treemining) share: the per-subtree open-edge counts both keep
// from explore events, and the grouping of co-located robots into teams.
// OpenCounts derives the same counts from the world; a checkpoint's counts
// are checked against it, and Potential (internal/potential) writes it as
// its checkpoint.
//
// Both algorithms decide per team — the robots standing on one node — and a
// team reserves dangling edges only at its own node, so the order teams are
// visited in cannot change a move. Grouper therefore finds the teams in
// O(k) per round without sorting the robots by position.
package teams

import (
	"fmt"
	"slices"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Counts holds, for every explored node v, the number of open (dangling)
// edges in the subtree T(v), maintained incrementally from explore events.
// The zero value is ready to use.
type Counts struct {
	vals   []int32
	seeded bool
}

// Get returns the number of open edges in T(v).
func (c *Counts) Get(v tree.NodeID) int32 {
	if int(v) >= len(c.vals) {
		return 0
	}
	return c.vals[v]
}

func (c *Counts) add(v tree.NodeID, d int32) {
	for int(v) >= len(c.vals) {
		c.vals = append(c.vals, 0)
	}
	c.vals[v] += d
}

// Update folds one round's explore events into the counts, seeding the
// root's dangling edges on the first call. Discovering a child with m
// hidden children consumes one open edge at its parent and adds m at the
// child: +m at the child and m−1 on every ancestor.
func (c *Counts) Update(v *sim.View, events []sim.ExploreEvent) {
	if !c.seeded {
		c.add(tree.Root, int32(v.DanglingAt(tree.Root)))
		c.seeded = true
	}
	for _, e := range events {
		c.add(e.Child, int32(e.NewDangling))
		if delta := int32(e.NewDangling - 1); delta != 0 {
			for u := e.Parent; ; u = v.Parent(u) {
				c.add(u, delta)
				if u == tree.Root {
					break
				}
			}
		}
	}
}

// Reset empties the counts, keeping their storage; a reset Counts equals
// the zero value.
func (c *Counts) Reset() {
	c.vals = c.vals[:0]
	c.seeded = false
}

// Snapshot appends the counts and the seeding flag to e (DESIGN.md S30).
func (c *Counts) Snapshot(e *snap.Encoder) {
	e.Bool(c.seeded)
	e.Int32s(c.vals)
}

// Restore reads a Snapshot back, taken after the round whose explores are
// pending. Counts that fold in every explore but the pending ones are
// OpenCounts(v, pending), and they are seeded exactly when a round has
// run; anything else is refused with snap.ErrCorrupt.
func (c *Counts) Restore(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	c.seeded = d.Bool()
	c.vals = append(c.vals[:0], d.Int32s()...)
	if err := d.Err(); err != nil {
		return err
	}
	var want []int32
	if c.seeded {
		want = OpenCounts(v, pending)
	}
	if c.seeded != (v.Round() > 0) || !slices.Equal(c.vals, want) {
		return fmt.Errorf("teams: open counts disagree with the world at round %d: %w", v.Round(), snap.ErrCorrupt)
	}
	return nil
}

// OpenCounts returns, for every node up to the largest one explored before
// the pending explores, the number of open edges in its explored subtree
// T(v) with those explores undone: the counts that Counts.Update holds
// when it has folded in every round but the last. Undoing an explore
// hides its child and reopens the edge at its parent. Ids are
// topologically ordered, so one reverse pass folds each subtree into its
// parent after all of its own descendants. O(largest explored id).
func OpenCounts(v *sim.View, pending []sim.ExploreEvent) []int32 {
	var open []int32 // −1 marks a node not explored
	for u, seen := tree.NodeID(0), 0; seen < v.ExploredCount(); u++ {
		d := int32(-1)
		if v.Explored(u) {
			seen++
			d = int32(v.DanglingAt(u))
		}
		open = append(open, d)
	}
	for _, e := range pending {
		open[e.Child] = -1
		open[e.Parent]++
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

// Grouper finds the teams of a round in O(k) without sorting. A reverse
// pass over the robots threads each node's robots into a list (head per
// node, next per robot) that runs in index order from the node's lowest
// robot; a forward pass emits each team when it reaches that robot and
// clears the node's head. Every head entry is -1 between rounds, so the
// node-indexed table is never cleared. The zero value is ready to use.
type Grouper struct {
	head []int32
	next []int32
	team []int32
}

// Each calls f once per team, in order of the team's lowest robot, with the
// team's node and its robots in index order. It returns the first error f
// returns, after which it calls f no more.
func (g *Grouper) Each(v *sim.View, f func(v *sim.View, node tree.NodeID, robots []int32) error) error {
	k := v.K()
	if cap(g.next) < k {
		g.next, g.team = make([]int32, k), make([]int32, 0, k)
	}
	g.next = g.next[:k]
	for i := k - 1; i >= 0; i-- {
		p := v.Pos(i)
		if int(p) >= len(g.head) {
			g.growHead(int(p) + 1)
		}
		g.next[i] = g.head[p]
		g.head[p] = int32(i)
	}
	var err error
	for i := 0; i < k; i++ {
		p := v.Pos(i)
		if g.head[p] != int32(i) {
			continue
		}
		g.head[p] = -1
		if err != nil {
			continue
		}
		g.team = g.team[:0]
		for r := int32(i); r >= 0; r = g.next[r] {
			g.team = append(g.team, r)
		}
		err = f(v, p, g.team)
	}
	return err
}

// growHead extends the head table to at least n entries, doubling it so a
// run that reaches nodes one at a time reallocates O(log n) times.
func (g *Grouper) growHead(n int) {
	old := len(g.head)
	g.head = append(g.head, make([]int32, max(n, 2*old)-old)...)
	for i := old; i < len(g.head); i++ {
		g.head[i] = -1
	}
}
