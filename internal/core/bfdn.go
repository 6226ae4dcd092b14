// Package core implements Breadth-First Depth-Next (BFDN), Algorithm 1 of
// Cosson, Massoulié, Viennot (2023) — the paper's primary contribution.
//
// When a robot is at the (instance) root it is assigned an anchor: an open
// node (adjacent to a dangling edge) of minimal depth, breaking ties by
// least anchor load (procedure Reanchor). The robot reaches the anchor with
// breadth-first moves through explored edges (procedure BF), then performs
// depth-next moves (procedure DN): traverse an adjacent unselected dangling
// edge if one exists, otherwise go one step up; back at the root it is
// re-anchored. Exploration stops when all robots are at the root and no
// dangling edge remains.
//
// The implementation is parameterized so that the recursive construction of
// §5 (package recursive) can reuse it: an instance may control a subset of
// the robots, operate on the subtree of a virtual root, and limit the depth
// at which anchors are assigned (the BFDN₁(k, k, d) variant).
package core

import (
	"fmt"
	"math/rand"

	"bfdn/internal/openindex"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// BFDN is one instance of the algorithm. Create it with New (whole tree, all
// robots) or NewInstance (sub-exploration for the recursive construction).
type BFDN struct {
	robots    []int
	isMine    bitset
	root      tree.NodeID
	rootDepth int
	// maxAnchorDepth limits the relative depth of assigned anchors
	// (BFDN₁(k,k,d)); -1 means unlimited (plain BFDN).
	maxAnchorDepth int
	policy         Policy
	rng            *rand.Rand
	recordExc      bool
	shortcut       bool

	idx    *openindex.Index
	rs     []robotState
	stats  Stats
	seeded bool
	// reanchorAt scratch (shortcut mode): the down-chain and up-chain of the
	// shortest explored path, reused across re-anchors.
	scratchDown []tree.NodeID
	scratchUps  []tree.NodeID
}

// bitset is a dense robot-id set; it replaces the map[int]bool whose lookups
// sat on the absorb hot path (one hash per explore event per round).
type bitset []uint64

func (s bitset) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

func (s *bitset) setBits(ids []int) {
	max := 0
	for _, i := range ids {
		if i > max {
			max = i
		}
	}
	words := max>>6 + 1
	if cap(*s) >= words {
		*s = (*s)[:words]
		for w := range *s {
			(*s)[w] = 0
		}
	} else {
		*s = make(bitset, words)
	}
	for _, i := range ids {
		(*s)[i>>6] |= 1 << (uint(i) & 63)
	}
}

type robotState struct {
	anchor      tree.NodeID
	anchorDepth int // relative to the instance root
	stack       []tree.NodeID
	excRounds   int
	excExplored int
	everMoved   bool
}

// Option configures a BFDN instance.
type Option func(*BFDN)

// WithPolicy selects the re-anchoring policy (default LeastLoaded).
func WithPolicy(p Policy) Option { return func(b *BFDN) { b.policy = p } }

// WithRand injects the randomness source used by the RandomOpen policy.
func WithRand(rng *rand.Rand) Option { return func(b *BFDN) { b.rng = rng } }

// WithExcursionRecording keeps a per-excursion log (Claim 3 tests). Off by
// default because the log grows with the number of excursions.
func WithExcursionRecording() Option { return func(b *BFDN) { b.recordExc = true } }

// WithMaxAnchorDepth limits anchors to relative depth ≤ d, yielding the
// BFDN₁(k, k, d) variant of §5.
func WithMaxAnchorDepth(d int) Option { return func(b *BFDN) { b.maxAnchorDepth = d } }

// WithShortcutReanchor enables the A2 ablation variant: a robot that has
// exhausted its anchor's subtree re-anchors in place and walks the shortest
// explored path to its next anchor instead of returning to the root first.
// This saves rounds in the complete-communication model but breaks the
// write-read adaptation of §4.1 (the paper keeps return-to-root so the root
// can act as the central planner).
func WithShortcutReanchor() Option { return func(b *BFDN) { b.shortcut = true } }

// New returns a BFDN controlling robots 0..k-1 on the whole tree.
func New(k int, opts ...Option) *BFDN {
	robots := make([]int, k)
	for i := range robots {
		robots[i] = i
	}
	return NewInstance(robots, tree.Root, opts...)
}

// NewInstance returns a BFDN controlling the given robots, exploring the
// subtree rooted at root. Robots are assumed to start at root or at valid
// depth-next positions inside the subtree (Parallel DFS Positions, §5).
func NewInstance(robots []int, root tree.NodeID, opts ...Option) *BFDN {
	b := &BFDN{
		robots:         robots,
		root:           root,
		maxAnchorDepth: -1,
		policy:         LeastLoaded,
	}
	b.isMine.setBits(robots)
	for _, o := range opts {
		o(b)
	}
	b.idx = openindex.New(b.policy == MostLoaded)
	b.rs = make([]robotState, len(robots))
	return b
}

// Reset re-initializes b to the state of a fresh New/NewInstance with the
// given robots and root, keeping its configuration (policy, randomness
// source, anchor-depth limit, shortcut and recording flags) and reusing
// every internal buffer — the anchor index's buckets and heaps, per-robot BF
// stacks, and re-anchor scratch. A run on a Reset instance is
// byte-identical to a run on a freshly constructed one whose randomness
// source is in the same state; the sweep engine's algorithm-reuse path
// relies on this.
func (b *BFDN) Reset(robots []int, root tree.NodeID) {
	if cap(b.robots) >= len(robots) {
		b.robots = b.robots[:len(robots)]
		copy(b.robots, robots)
	} else {
		b.robots = append([]int(nil), robots...)
	}
	b.isMine.setBits(b.robots)
	b.root = root
	b.rootDepth = 0
	b.idx.Reset()
	if cap(b.rs) >= len(robots) {
		b.rs = b.rs[:len(robots)]
	} else {
		b.rs = make([]robotState, len(robots))
	}
	for j := range b.rs {
		st := &b.rs[j]
		*st = robotState{stack: st.stack[:0]}
	}
	b.stats.reset()
	b.seeded = false
}

// Stats returns the accumulated instrumentation.
func (b *BFDN) Stats() *Stats { return &b.stats }

// Root returns the instance root.
func (b *BFDN) Root() tree.NodeID { return b.root }

// Robots returns the robot indices this instance controls (shared slice).
func (b *BFDN) Robots() []int { return b.robots }

// Anchor returns the current anchor of the j-th controlled robot.
func (b *BFDN) Anchor(j int) tree.NodeID { return b.rs[j].anchor }

// InBF reports whether the j-th controlled robot is still descending its
// breadth-first stack towards its anchor.
func (b *BFDN) InBF(j int) bool { return len(b.rs[j].stack) > 0 }

// MaxAnchorDepth reports the relative anchor-depth limit (-1 if unlimited).
func (b *BFDN) MaxAnchorDepth() int { return b.maxAnchorDepth }

// Seeded reports whether the instance has decided a round since it was
// built or Reset.
func (b *BFDN) Seeded() bool { return b.seeded }

// within reports whether explored node u lies in the instance's subtree.
func (b *BFDN) within(v *sim.View, u tree.NodeID) bool {
	for d := v.DepthOf(u); d > v.DepthOf(b.root); d-- {
		u = v.Parent(u)
	}
	return u == b.root
}

// CheckRobots reports a controlled robot that stands outside the
// instance's subtree: its explores would be filed at depths above the
// root, and a re-anchoring walk up from it would never meet the root. An
// instance checks its robots when it seeds; BFDN_ℓ checks those of a
// restored instance that has already seeded (DESIGN.md S30).
func (b *BFDN) CheckRobots(v *sim.View) error {
	for _, r := range b.robots {
		if !b.within(v, v.Pos(r)) {
			return fmt.Errorf("core: robot %d at %d is outside the subtree of %d", r, v.Pos(r), b.root)
		}
	}
	return nil
}

// seed initializes the open-node index by walking the explored part of the
// instance's subtree, and anchors every robot at the instance root.
func (b *BFDN) seed(v *sim.View) error {
	if err := b.CheckRobots(v); err != nil {
		return err
	}
	b.rootDepth = v.DepthOf(b.root)
	stack := []tree.NodeID{b.root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.DanglingAt(u) > 0 {
			b.idx.AddOpen(u, v.DepthOf(u)-b.rootDepth)
		}
		stack = append(stack, v.ExploredChildren(u)...)
	}
	for j := range b.rs {
		b.rs[j].anchor, b.rs[j].anchorDepth = b.root, 0
		b.idx.ChangeLoad(b.root, 0, 1)
	}
	b.seeded = true
	return nil
}

// absorb updates the open-node index with the explore events of the previous
// round that were caused by this instance's robots.
func (b *BFDN) absorb(v *sim.View, events []sim.ExploreEvent) {
	for _, e := range events {
		if !b.isMine.has(e.Robot) {
			continue
		}
		if e.NewDangling > 0 {
			b.idx.AddOpen(e.Child, v.DepthOf(e.Parent)+1-b.rootDepth)
		}
		if e.ParentDangling == 0 {
			// Exactly one event per closed parent carries 0 (close is
			// idempotent anyway, but skipping the others avoids an index
			// probe per event).
			b.idx.Close(e.Parent, v.DepthOf(e.Parent)-b.rootDepth)
		}
	}
}

// Decide computes this round's move for every controlled robot and writes it
// into moves (indexed by global robot id). Robots are processed in order, so
// dangling-edge reservations are sequential as in Algorithm 1.
func (b *BFDN) Decide(v *sim.View, events []sim.ExploreEvent, moves []sim.Move) error {
	return b.DecideAllowed(v, events, moves, nil)
}

// DecideAllowed is Decide restricted to the robots for which allowed returns
// true (§4.2: under adversarial break-downs, only robots allowed to move
// take part in the round's assignment process). Blocked robots are given a
// Stay move and their internal state is left untouched. allowed == nil
// allows everyone.
func (b *BFDN) DecideAllowed(v *sim.View, events []sim.ExploreEvent, moves []sim.Move, allowed func(robot int) bool) error {
	if !b.seeded {
		if err := b.seed(v); err != nil {
			return err
		}
	}
	b.absorb(v, events)
	for j, r := range b.robots {
		if allowed != nil && !allowed(r) {
			moves[r] = sim.Move{Kind: sim.Stay}
			continue
		}
		m, err := b.decideRobot(v, j, r)
		if err != nil {
			return err
		}
		moves[r] = m
	}
	return nil
}

// decideRobot emits the round's move for the j-th controlled robot: it
// re-anchors a robot back at the instance root, then pops the BF stack,
// reserves a dangling edge (DN), or goes one step up.
func (b *BFDN) decideRobot(v *sim.View, j, robot int) (sim.Move, error) {
	st := &b.rs[j]
	pos := v.Pos(robot)
	if pos == b.root && len(st.stack) == 0 {
		if err := b.reanchor(v, j, robot); err != nil {
			return sim.Move{}, err
		}
	}
	if len(st.stack) > 0 {
		// BF: unstack the next node on the path to the anchor. In shortcut
		// mode the path may also lead upwards.
		next := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		st.excRounds++
		st.everMoved = true
		if next == v.Parent(pos) {
			return sim.Move{Kind: sim.Up}, nil
		}
		if v.Parent(next) != pos {
			return sim.Move{}, fmt.Errorf("core: robot %d: BF stack node %d is not a child of %d", robot, next, pos)
		}
		return sim.Move{Kind: sim.Down, Child: next}, nil
	}
	// DN: dangling edge if available, otherwise up (⊥ at the instance root).
	if tk, ok := v.ReserveDangling(pos); ok {
		st.excRounds++
		st.excExplored++
		st.everMoved = true
		return sim.Move{Kind: sim.Explore, Ticket: tk}, nil
	}
	if b.shortcut && pos == st.anchor && pos != b.root {
		// A2 ablation: the subtree of the anchor is exhausted; re-anchor in
		// place and take the shortest explored path to the next anchor.
		if err := b.reanchorAt(v, j, robot, pos); err != nil {
			return sim.Move{}, err
		}
		if len(st.stack) > 0 || v.UnreservedDanglingAt(pos) > 0 {
			return b.decideRobot(v, j, robot)
		}
		// New anchor is the current node or nothing to do: fall through to
		// the normal ascent.
	}
	if pos != b.root {
		st.excRounds++
		return sim.Move{Kind: sim.Up}, nil
	}
	b.stats.IdleSelections++
	return sim.Move{Kind: sim.Stay}, nil
}

// reanchor implements procedure Reanchor plus instrumentation: it ends the
// robot's previous excursion, releases its anchor load, and assigns the open
// node of minimal depth according to the policy (the instance root if no
// open node exists within the anchor-depth limit).
func (b *BFDN) reanchor(v *sim.View, j, robot int) error {
	st := &b.rs[j]
	anchor, err := b.assignAnchor(v, j, robot)
	// Stack the path from the instance root to the anchor (reverse order:
	// the first step is popped first).
	st.stack = st.stack[:0]
	for u := anchor; u != b.root; u = v.Parent(u) {
		st.stack = append(st.stack, u)
	}
	return err
}

// reanchorAt is reanchor for the shortcut ablation: the robot re-anchors
// from its current position, stacking the shortest explored path.
func (b *BFDN) reanchorAt(v *sim.View, j, robot int, pos tree.NodeID) error {
	st := &b.rs[j]
	anchor, err := b.assignAnchor(v, j, robot)
	st.stack = st.stack[:0]
	if err != nil || anchor == pos {
		return err
	}
	// Shortest path pos→anchor via their LCA, stored reversed (first hop
	// popped first): the anchor-side chain bottom-up, then pos's ancestors
	// from the LCA down to pos's parent.
	a, c := pos, anchor
	for v.DepthOf(a) > v.DepthOf(c) {
		a = v.Parent(a)
	}
	down := b.scratchDown[:0]
	for v.DepthOf(c) > v.DepthOf(a) {
		down = append(down, c)
		c = v.Parent(c)
	}
	for a != c {
		a = v.Parent(a)
		down = append(down, c)
		c = v.Parent(c)
	}
	ups := b.scratchUps[:0]
	for x := pos; x != a; x = v.Parent(x) {
		ups = append(ups, v.Parent(x))
	}
	st.stack = append(st.stack, down...)
	for i := len(ups) - 1; i >= 0; i-- {
		st.stack = append(st.stack, ups[i])
	}
	b.scratchDown, b.scratchUps = down[:0], ups[:0]
	return nil
}

// assignAnchor finishes the robot's excursion bookkeeping and picks its next
// anchor per the policy, updating loads and re-anchor statistics.
func (b *BFDN) assignAnchor(v *sim.View, j, robot int) (tree.NodeID, error) {
	st := &b.rs[j]
	if b.recordExc && st.everMoved && st.excRounds > 0 {
		b.stats.Excursions = append(b.stats.Excursions, Excursion{
			Robot:    robot,
			Depth:    st.anchorDepth,
			Rounds:   st.excRounds,
			Explored: st.excExplored,
		})
	}
	st.excRounds, st.excExplored = 0, 0
	b.idx.ChangeLoad(st.anchor, st.anchorDepth, -1)

	anchor, depth := b.root, 0
	for {
		d, ok := b.idx.MinOpenDepth(b.maxAnchorDepth)
		if !ok {
			break
		}
		var cand tree.NodeID
		switch b.policy {
		case RoundRobin:
			cand = b.idx.PickRoundRobin(d)
		case RandomOpen:
			m := b.idx.Members(d)
			cand = m[b.rng.Intn(len(m))]
		default:
			var err error
			if cand, err = b.idx.PickMinLoad(d); err != nil {
				return b.root, err
			}
		}
		if !v.Explored(cand) || v.DepthOf(cand) != b.rootDepth+d {
			// Only a corrupt checkpoint puts such a node in the index.
			return b.root, fmt.Errorf("core: open-node index holds node %d at relative depth %d, which the view does not", cand, d)
		}
		if v.DanglingAt(cand) == 0 {
			// Stale entry: the node was closed by a robot of a sibling
			// instance (possible only in the recursive construction when
			// instance subtrees overlap transiently). Drop and retry.
			b.idx.Close(cand, d)
			continue
		}
		anchor, depth = cand, d
		b.stats.countReanchor(depth)
		break
	}
	st.anchor, st.anchorDepth = anchor, depth
	b.idx.ChangeLoad(anchor, depth, 1)
	return anchor, nil
}

// ShallowDone reports whether no open node remains at relative depth ≤ the
// anchor-depth limit (always false before the first Decide call).
func (b *BFDN) ShallowDone() bool {
	if !b.seeded {
		return false
	}
	_, ok := b.idx.MinOpenDepth(b.maxAnchorDepth)
	return !ok
}

// Algorithm adapts a whole-tree BFDN instance to sim.Algorithm.
type Algorithm struct {
	b     *BFDN
	moves []sim.Move
}

var _ sim.Algorithm = (*Algorithm)(nil)

// NewAlgorithm returns a sim.Algorithm running BFDN with k robots.
func NewAlgorithm(k int, opts ...Option) *Algorithm {
	return &Algorithm{b: New(k, opts...), moves: make([]sim.Move, k)}
}

// Inner exposes the underlying instance (for stats).
func (a *Algorithm) Inner() *BFDN { return a.b }

// Reset re-initializes a for a fresh whole-tree run with k robots, keeping
// the instance's configuration, its randomness source included, and reusing
// all internal buffers (sweep.Point.Name).
func (a *Algorithm) Reset(k int) {
	if cap(a.b.robots) >= k {
		a.b.robots = a.b.robots[:k]
	} else {
		a.b.robots = make([]int, k)
	}
	for i := range a.b.robots {
		a.b.robots[i] = i
	}
	a.b.Reset(a.b.robots, tree.Root)
	if cap(a.moves) >= k {
		a.moves = a.moves[:k]
	} else {
		a.moves = make([]sim.Move, k)
	}
	for i := range a.moves {
		a.moves[i] = sim.Move{}
	}
}

// SelectMoves implements sim.Algorithm.
func (a *Algorithm) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	if err := a.b.Decide(v, events, a.moves); err != nil {
		return nil, err
	}
	return a.moves, nil
}
