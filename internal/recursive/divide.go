package recursive

import (
	"fmt"
	"sort"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// dPhase is the internal state of a divideDepth instance.
type dPhase int

const (
	phaseTravel dPhase = iota + 1 // fresh team members walk to their roots
	phaseRun                      // children instances run in parallel
	phaseDeep                     // past the last iteration: children run on
	phaseDone                     // nothing left within the depth budget
)

// divideDepth implements the divide-depth functor 𝒟[𝒜(k*, k′, d′); n_team;
// n_iter] of §5 / Algorithm 3 as an anchor-based algorithm 𝒟(k*, k, d) with
// k = n_team·k′ robots and depth budget d = n_iter·d′. Children are built by
// the level factory, so the construction nests to arbitrary ℓ.
type divideDepth struct {
	level  int // ≥ 2; children have level-1
	kstar  int // activity parameter k* (= n_team here)
	s      int // base: n_iter = s and the child budget is s^(level−1)
	robots []int
	root   tree.NodeID

	iter       int // 1-based current iteration
	phase      dPhase
	children   []Anchored
	ranOnce    bool
	seeded     bool
	childDepth int // s^(level−1)

	// travel state: per traveling robot, the remaining path (popped from the
	// end); robots with empty paths idle until the phase flips. Kept sorted
	// by robot id so travel moves and slid-anchor emission are deterministic
	// (a map here would make ActiveAnchors order depend on iteration order).
	plans []travelPlan
}

// travelPlan is one robot's remaining walk to its team root, reversed so
// hops pop from the end.
type travelPlan struct {
	robot int
	path  []tree.NodeID
}

var _ Anchored = (*divideDepth)(nil)

// newDivideDepth builds the level-m instance: n_team = k*, n_iter = s,
// children of level m−1 with depth budget s^(m−1) and k*^(m−1) robots each.
func newDivideDepth(level int, robots []int, root tree.NodeID, s, kstar int) *divideDepth {
	cd := 1
	for i := 0; i < level-1; i++ {
		cd *= s
	}
	return &divideDepth{
		level:      level,
		kstar:      kstar,
		s:          s,
		robots:     robots,
		root:       root,
		childDepth: cd,
	}
}

// buildLevel constructs BFDN_m(k*, k*^m, s^m) on the subtree of root.
func buildLevel(level int, robots []int, root tree.NodeID, s, kstar int) Anchored {
	if level == 1 {
		return newBFDN1(robots, root, s)
	}
	return newDivideDepth(level, robots, root, s, kstar)
}

// Step implements Anchored. It always makes progress: phase transitions are
// resolved eagerly within the same round, so a globally-still round can only
// happen when the instance is truly done.
func (d *divideDepth) Step(v *sim.View, events []sim.ExploreEvent, moves []sim.Move) error {
	if !d.seeded {
		d.seeded = true
		d.iter = 1
		d.startIteration(v, []tree.NodeID{d.root})
	}
	for guard := 0; guard <= d.s+2; guard++ {
		switch d.phase {
		case phaseDone:
			d.stayAll(v, moves)
			return nil
		case phaseTravel:
			if d.travelDone() {
				d.phase = phaseRun
				d.ranOnce = false
				continue
			}
			d.stepTravel(v, moves)
			return nil
		case phaseRun, phaseDeep:
			if d.phase == phaseRun && d.ranOnce && d.childActive(v) < d.kstar {
				// Interrupt all instances simultaneously (Algorithm 3,
				// line 15) and set up the next iteration, or transition to
				// the deep phase after the last one.
				if d.iter >= d.s {
					d.phase = phaseDeep
					continue
				}
				var pairs []RobotAnchor
				for _, c := range d.children {
					pairs = c.ActiveAnchors(v, pairs)
				}
				roots := dedupeRoots(pairs)
				d.iter++
				if len(roots) == 0 {
					d.phase = phaseDone
					continue
				}
				d.startIterationWithResidents(v, roots, pairs)
				continue
			}
			d.stayAll(v, moves)
			for _, c := range d.children {
				if err := c.Step(v, events, moves); err != nil {
					return err
				}
			}
			d.ranOnce = true
			return nil
		default:
			return fmt.Errorf("recursive: invalid phase %d", d.phase)
		}
	}
	return fmt.Errorf("recursive: phase transitions did not settle (level %d iter %d)", d.level, d.iter)
}

// stayAll pre-fills Stay for every controlled robot.
func (d *divideDepth) stayAll(_ *sim.View, moves []sim.Move) {
	for _, r := range d.robots {
		moves[r] = sim.Move{Kind: sim.Stay}
	}
}

// startIteration begins an iteration whose subtree roots are given, with
// residents derived from positions (used for iteration 1: robots inside the
// subtree are adopted by the root team).
func (d *divideDepth) startIteration(v *sim.View, roots []tree.NodeID) {
	var pairs []RobotAnchor
	for _, r := range d.robots {
		if v.Pos(r) != d.root {
			pairs = append(pairs, RobotAnchor{Robot: r, Anchor: d.root})
		}
	}
	// Residents of iteration 1 all belong to the single team at d.root; the
	// generic path below expects resident anchors among the roots.
	d.formTeams(v, roots, pairs)
}

// startIterationWithResidents begins iteration i ≥ 2 from the interrupted
// state: roots are the slid anchors of the still-active robots, each of
// which is a resident of its own subtree.
func (d *divideDepth) startIterationWithResidents(v *sim.View, roots []tree.NodeID, residents []RobotAnchor) {
	d.formTeams(v, roots, residents)
}

// formTeams partitions the robots into one team of size k′ = k/n_team per
// root: residents stay with their root's team, the remainder is filled with
// inactive robots, and robots in excess of |roots| teams wait in place.
// Fresh team members get travel plans to their roots.
func (d *divideDepth) formTeams(v *sim.View, roots []tree.NodeID, residents []RobotAnchor) {
	kPrime := len(d.robots) / d.kstar
	resOf := make(map[int]tree.NodeID, len(residents))
	for _, p := range residents {
		resOf[p.Robot] = p.Anchor
	}
	teams := make(map[tree.NodeID][]int, len(roots))
	for _, p := range residents {
		teams[p.Anchor] = append(teams[p.Anchor], p.Robot)
	}
	// Fill teams with free robots, in stable order.
	var free []int
	for _, r := range d.robots {
		if _, isRes := resOf[r]; !isRes {
			free = append(free, r)
		}
	}
	d.plans = d.plans[:0]
	d.children = d.children[:0]
	for _, root := range roots {
		team := teams[root]
		for len(team) < kPrime && len(free) > 0 {
			r := free[0]
			free = free[1:]
			team = append(team, r)
		}
		// Every team member not inside T(root) walks there first. This also
		// covers residents whose slid anchor lies below their position (a
		// robot interrupted mid-BF-descent).
		rootDepth := v.DepthOf(root)
		for _, r := range team {
			if pos := v.Pos(r); pos != root && ancestorAtDepth(v, pos, rootDepth) != root {
				d.plans = append(d.plans, travelPlan{robot: r, path: pathBetween(v, pos, root)})
			}
		}
		d.children = append(d.children, buildLevel(d.level-1, team, root, d.s, d.kstar))
	}
	sort.Slice(d.plans, func(i, j int) bool { return d.plans[i].robot < d.plans[j].robot })
	d.phase = phaseTravel
}

// travelDone reports whether all travel plans are exhausted.
func (d *divideDepth) travelDone() bool {
	for i := range d.plans {
		if len(d.plans[i].path) > 0 {
			return false
		}
	}
	return true
}

// stepTravel advances every traveling robot one hop.
func (d *divideDepth) stepTravel(v *sim.View, moves []sim.Move) {
	d.stayAll(v, moves)
	for i := range d.plans {
		p := &d.plans[i]
		if len(p.path) == 0 {
			continue
		}
		next := p.path[len(p.path)-1]
		p.path = p.path[:len(p.path)-1]
		if next == v.Parent(v.Pos(p.robot)) {
			moves[p.robot] = sim.Move{Kind: sim.Up}
		} else {
			moves[p.robot] = sim.Move{Kind: sim.Down, Child: next}
		}
	}
}

// pathBetween returns the explored-tree path from src to dst (exclusive of
// src, inclusive of dst), stored in reverse so hops pop from the end.
func pathBetween(v *sim.View, src, dst tree.NodeID) []tree.NodeID {
	// Ascend both to their LCA.
	var down []tree.NodeID // dst-side, collected bottom-up
	a, b := src, dst
	for v.DepthOf(a) > v.DepthOf(b) {
		a = v.Parent(a)
	}
	for v.DepthOf(b) > v.DepthOf(a) {
		down = append(down, b)
		b = v.Parent(b)
	}
	for a != b {
		a = v.Parent(a)
		down = append(down, b)
		b = v.Parent(b)
	}
	lca := a
	// Hop sequence: src's ancestors down to lca (ups, nearest first), then
	// the dst-side chain top-down. Stored reversed so pops give that order:
	// [downs bottom-up..., ups lca-first...] — popping from the end yields
	// src's parent first.
	var ups []tree.NodeID
	for x := src; x != lca; x = v.Parent(x) {
		ups = append(ups, v.Parent(x))
	}
	rev := append([]tree.NodeID(nil), down...)
	for i := len(ups) - 1; i >= 0; i-- {
		rev = append(rev, ups[i])
	}
	return rev
}

// childActive sums the children's active robots plus still-traveling robots.
func (d *divideDepth) childActive(v *sim.View) int {
	n := 0
	for _, c := range d.children {
		n += c.ActiveCount(v)
	}
	for i := range d.plans {
		if len(d.plans[i].path) > 0 {
			n++
		}
	}
	return n
}

// ActiveCount implements Anchored.
func (d *divideDepth) ActiveCount(v *sim.View) int {
	if d.phase == phaseDone {
		return 0
	}
	if !d.seeded {
		// Not yet stepped: residents inside the subtree count as active.
		n := 0
		for _, r := range d.robots {
			if v.Pos(r) != d.root {
				n++
			}
		}
		return n
	}
	return d.childActive(v)
}

// ActiveAnchors implements Anchored.
func (d *divideDepth) ActiveAnchors(v *sim.View, out []RobotAnchor) []RobotAnchor {
	if d.phase == phaseDone {
		return out
	}
	if !d.seeded {
		for _, r := range d.robots {
			if v.Pos(r) != d.root {
				out = append(out, RobotAnchor{Robot: r, Anchor: d.root})
			}
		}
		return out
	}
	for _, c := range d.children {
		out = c.ActiveAnchors(v, out)
	}
	limitAbs := v.DepthOf(d.root) + d.iter*d.childDepth
	for i := range d.plans {
		p := &d.plans[i]
		if len(p.path) > 0 {
			out = append(out, RobotAnchor{Robot: p.robot, Anchor: ancestorAtDepth(v, v.Pos(p.robot), limitAbs)})
		}
	}
	return out
}

// FinishedIterations reports that the instance is past its last iteration
// (used by BFDN_ℓ's phase schedule, which does not run deep).
func (d *divideDepth) FinishedIterations() bool {
	return d.phase == phaseDeep || d.phase == phaseDone
}

// dedupeRoots extracts the distinct anchors from the pairs, in sorted order
// for determinism.
func dedupeRoots(pairs []RobotAnchor) []tree.NodeID {
	seen := make(map[tree.NodeID]bool, len(pairs))
	var roots []tree.NodeID
	for _, p := range pairs {
		if !seen[p.Anchor] {
			seen[p.Anchor] = true
			roots = append(roots, p.Anchor)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	return roots
}
