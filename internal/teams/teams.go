// Package teams is the team walk that CTE (internal/cte) and Tree-Mining
// (internal/treemining) both are, with the split rule as its one
// parameter. Every round the robots standing on one node form a team. A
// team whose subtree holds no open (dangling) edge climbs home; any other
// team splits over its targets: the explored children whose subtrees still
// hold open edges, weighted by that reserve, then at most one dangling
// edge per robot at the node itself, weight 1. The rule maps the team's
// j-th robot to a target: CTE's Even sends it to target j mod L,
// Tree-Mining's Proportional splits the team in proportion to the weights.
//
// A team reserves dangling edges only at its own node, so the order teams
// are visited in cannot change a move; the grouper therefore finds them in
// O(k) per round without sorting the robots by position. The per-subtree
// open counts are kept from explore events. Their derivation from the
// world is the checkpoint that CTE, Tree-Mining and Potential
// (internal/potential) share: SnapshotCounts writes it and RestoreCounts
// checks it.
package teams

import (
	"fmt"
	"slices"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Team is the team walk under one split rule. It implements sim.Algorithm
// and sim.Snapshotter.
type Team struct {
	name string // prefix of every error: the algorithm's package
	rule Rule
	k    int
	open counts
	// Reusable scratch: moves is the returned move vector, grouper finds the
	// teams, targets is one team's destination list and to its split.
	moves   []sim.Move
	grouper grouper
	targets []target
	to      []int32
}

var (
	_ sim.Algorithm   = (*Team)(nil)
	_ sim.Snapshotter = (*Team)(nil)
)

// target is one destination of a team: an explored child whose subtree
// still holds open edges (weight = that reserve), or one dangling edge at
// the team's node (weight 1). quota is Proportional's scratch; reserved
// marks a dangling target that holds its ticket.
type target struct {
	kind     sim.MoveKind
	child    tree.NodeID
	ticket   sim.Ticket
	weight   int
	quota    int
	reserved bool
}

// Rule splits a team of len(to) robots over a non-empty target list: it
// sets to[j] to the index of the target the team's j-th robot takes. The
// robots must take the targets first in target order: the first robot of
// a target comes before the first robot of any later target.
type Rule func(targets []target, to []int32)

// Even is CTE's rule: robot j takes target j mod len(targets), an even
// split over the targets.
func Even(targets []target, to []int32) {
	for j := range to {
		to[j] = int32(j % len(targets))
	}
}

// Proportional is Tree-Mining's rule: a split in proportion to the weights
// with largest-remainder rounding. Target i first receives ⌊g·wᵢ/W⌋
// robots, then the remaining robots go to the targets with the largest
// fractional parts g·wᵢ mod W (ties to the earlier target — explored
// children before dangling edges), and the robots fill the targets in
// order. Deterministic, and heavier veins always win the marginal robot.
func Proportional(targets []target, to []int32) {
	g, total := len(to), 0
	for _, t := range targets {
		total += t.weight
	}
	assigned := 0
	for i := range targets {
		q := g * targets[i].weight / total
		targets[i].quota = q
		assigned += q
	}
	for rem := g - assigned; rem > 0; rem-- {
		best, bestFrac := -1, -1
		for i := range targets {
			// Skip targets already topped up: one +1 per target keeps the
			// split within ±1 of exact proportionality.
			frac := g * targets[i].weight % total
			if targets[i].quota > g*targets[i].weight/total {
				continue
			}
			if frac > bestFrac {
				best, bestFrac = i, frac
			}
		}
		if best < 0 {
			best = 0
		}
		targets[best].quota++
	}
	ti := 0
	for j := range to {
		for targets[ti].quota == 0 {
			ti++
		}
		targets[ti].quota--
		to[j] = int32(ti)
	}
}

// New returns the team walk for k robots under rule; name prefixes its
// errors.
func New(k int, name string, rule Rule) *Team {
	t := &Team{name: name, rule: rule}
	t.Reset(k)
	return t
}

// Reset re-initializes t to the start state of a fresh New(k) while keeping
// every scratch buffer, so a recycled instance runs without constructing
// anything. A run on a Reset instance is byte-identical to a run on a fresh
// one; the sweep engine's algorithm-reuse path relies on this.
func (t *Team) Reset(k int) {
	t.k = k
	if cap(t.moves) < k {
		t.moves, t.to = make([]sim.Move, k), make([]int32, k)
	}
	t.moves, t.to = t.moves[:k], t.to[:k]
	clear(t.moves)
	t.open = t.open[:0]
	t.targets = t.targets[:0]
}

// SelectMoves implements sim.Algorithm.
func (t *Team) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	t.open.update(v, events)
	if err := t.grouper.each(v, t.decide); err != nil {
		return nil, err
	}
	return t.moves, nil
}

// decide assigns this round's moves for the team of robots at node: climb
// home when T(node) is mined out, or split over the targets by the rule.
func (t *Team) decide(v *sim.View, node tree.NodeID, robots []int32) error {
	if t.open.get(node) == 0 {
		for _, r := range robots {
			if node == tree.Root {
				t.moves[r] = sim.Move{Kind: sim.Stay}
			} else {
				t.moves[r] = sim.Move{Kind: sim.Up}
			}
		}
		return nil
	}
	t.targets = t.targets[:0]
	for _, ch := range v.ExploredChildren(node) {
		if w := int(t.open.get(ch)); w > 0 {
			t.targets = append(t.targets, target{kind: sim.Down, child: ch, weight: w})
		}
	}
	// No point listing more dangling edges than robots present.
	nd := min(v.UnreservedDanglingAt(node), len(robots))
	for range nd {
		t.targets = append(t.targets, target{kind: sim.Explore, weight: 1})
	}
	if len(t.targets) == 0 {
		// open > 0 but nothing actionable: impossible while teams are
		// disjoint by node — defensive error.
		return fmt.Errorf("%s: node %d: open subtree without targets", t.name, node)
	}
	to := t.to[:len(robots)]
	t.rule(t.targets, to)
	// A dangling target is reserved when its first robot takes it: only
	// taken targets, in target order (port order underneath).
	for j, r := range robots {
		tg := &t.targets[to[j]]
		if tg.kind == sim.Down {
			t.moves[r] = sim.Move{Kind: sim.Down, Child: tg.child}
			continue
		}
		if !tg.reserved {
			tk, ok := v.ReserveDangling(node)
			if !ok {
				return fmt.Errorf("%s: node %d: reservation failed with %d reported dangling", t.name, node, nd)
			}
			tg.ticket, tg.reserved = tk, true
		}
		t.moves[r] = sim.Move{Kind: sim.Explore, Ticket: tg.ticket}
	}
	return nil
}

// SnapshotState implements sim.Snapshotter (DESIGN.md S30) with the
// count-only checkpoint: the open counts are the walk's only cross-round
// memory, and the grouping and target buffers are rebuilt every round.
func (t *Team) SnapshotState(e *snap.Encoder, v *sim.View, pending []sim.ExploreEvent) {
	SnapshotCounts(e, t.k, v, pending)
}

// RestoreState implements sim.Snapshotter; t must have been constructed
// (or Reset) for the snapshot's robot count. The counts are rebuilt from
// the world they are checked against.
func (t *Team) RestoreState(d *snap.Decoder, v *sim.View, pending []sim.ExploreEvent) error {
	open, err := RestoreCounts(d, t.name, t.k, v, pending)
	if err != nil {
		return err
	}
	t.open = open
	return nil
}

// SnapshotCounts appends the count-only checkpoint of an algorithm for k
// robots (DESIGN.md S30): k, whether a round has run, and the per-subtree
// open counts as the last SelectMoves saw them — the world's, with the
// pending explores of that round undone, none before the first round.
func SnapshotCounts(e *snap.Encoder, k int, v *sim.View, pending []sim.ExploreEvent) {
	e.Int(k)
	e.Bool(v.Round() > 0)
	e.Int32s(openCounts(v, pending))
}

// RestoreCounts reads a SnapshotCounts back for an instance with k robots
// and returns the counts. A checkpoint for another k is refused, and so,
// with snap.ErrCorrupt, is one whose flag or counts are not the ones
// SnapshotCounts derives from the world. Every error but the decoder's
// starts with name.
func RestoreCounts(d *snap.Decoder, name string, k int, v *sim.View, pending []sim.ExploreEvent) ([]int32, error) {
	got := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if got != k {
		return nil, fmt.Errorf("%s: snapshot is for k=%d, instance has k=%d", name, got, k)
	}
	ran, open := d.Bool(), d.Int32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	want := openCounts(v, pending)
	if ran != (v.Round() > 0) || !slices.Equal(open, want) {
		return nil, fmt.Errorf("%s: open counts disagree with the world at round %d: %w", name, v.Round(), snap.ErrCorrupt)
	}
	return want, nil
}

// counts holds, for every explored node v, the number of open (dangling)
// edges in the subtree T(v), maintained incrementally from explore events.
// It is empty until its first update seeds the root.
type counts []int32

func (c counts) get(v tree.NodeID) int32 {
	if int(v) >= len(c) {
		return 0
	}
	return c[v]
}

func (c *counts) add(v tree.NodeID, d int32) {
	for int(v) >= len(*c) {
		*c = append(*c, 0)
	}
	(*c)[v] += d
}

// update folds one round's explore events into the counts, seeding the
// root's dangling edges on the first call. Discovering a child with m
// hidden children consumes one open edge at its parent and adds m at the
// child: +m at the child and m−1 on every ancestor.
func (c *counts) update(v *sim.View, events []sim.ExploreEvent) {
	if len(*c) == 0 {
		c.add(tree.Root, int32(v.DanglingAt(tree.Root)))
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

// openCounts returns the counts update holds when it has folded in every
// round but the last, whose explores are pending: none before the first
// round, and otherwise, for every node up to the largest one explored
// before the pending explores, the number of open edges in its explored
// subtree T(v) with those explores undone. Undoing an explore hides its
// child and reopens the edge at its parent. Ids are topologically ordered,
// so one reverse pass folds each subtree into its parent after all of its
// own descendants. O(largest explored id).
func openCounts(v *sim.View, pending []sim.ExploreEvent) []int32 {
	if v.Round() == 0 {
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

// grouper finds the teams of a round in O(k) without sorting. A reverse
// pass over the robots threads each node's robots into a list (head per
// node, next per robot) that runs in index order from the node's lowest
// robot; a forward pass emits each team when it reaches that robot and
// clears the node's head. Every head entry is -1 between rounds, so the
// node-indexed table is never cleared. The zero value is ready to use.
type grouper struct {
	head []int32
	next []int32
	team []int32
}

// each calls f once per team, in order of the team's lowest robot, with the
// team's node and its robots in index order. It returns the first error f
// returns, after which it calls f no more.
func (g *grouper) each(v *sim.View, f func(v *sim.View, node tree.NodeID, robots []int32) error) error {
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
func (g *grouper) growHead(n int) {
	old := len(g.head)
	g.head = append(g.head, make([]int32, max(n, 2*old)-old)...)
	for i := old; i < len(g.head); i++ {
		g.head[i] = -1
	}
}
