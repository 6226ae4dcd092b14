package writeread

import (
	"testing"

	"bfdn/internal/tree"
)

// plannerHarness builds a planner over a fixed tree: root with children
// a (node 1) and b (node 2); a has child c (node 3).
func plannerHarness(t *testing.T) (*planner, *tree.Tree) {
	t.Helper()
	b := tree.NewBuilder()
	a := b.AddChild(tree.Root)
	b.AddChild(tree.Root)
	b.AddChild(a)
	tr := b.Build()
	p := newPlanner()
	p.setResolver(tr.NeighborAtPort)
	return p, tr
}

func TestPlannerInitialAssignmentIsRoot(t *testing.T) {
	p, _ := plannerHarness(t)
	anchor, ports, ok := p.assign()
	if !ok || anchor != tree.Root || len(ports) != 0 {
		t.Fatalf("got anchor=%d ports=%v ok=%v, want root", anchor, ports, ok)
	}
	if p.d != 0 {
		t.Errorf("depth = %d, want 0", p.d)
	}
}

func TestPlannerLoadBalancing(t *testing.T) {
	p, _ := plannerHarness(t)
	// Three robots assigned to the single anchor (root) — loads pile up.
	for i := 0; i < 3; i++ {
		if _, _, ok := p.assign(); !ok {
			t.Fatal("assignment failed")
		}
	}
	if p.loads[tree.Root] != 3 {
		t.Errorf("root load = %d, want 3", p.loads[tree.Root])
	}
	// A return decrements the load and retires the root anchor.
	p.readReturn(tree.Root, []bool{false, false})
	if p.loads[tree.Root] != 2 {
		t.Errorf("root load = %d, want 2", p.loads[tree.Root])
	}
	if !p.returned[tree.Root] {
		t.Error("root not marked returned")
	}
}

func TestPlannerDepthAdvanceOnReturn(t *testing.T) {
	p, _ := plannerHarness(t)
	p.assign()
	// Root bitmap: port 0 (→ node 1) unfinished, port 1 (→ node 2) finished.
	p.readReturn(tree.Root, []bool{false, true})
	anchor, ports, ok := p.assign()
	if !ok {
		t.Fatal("no assignment after advance")
	}
	if p.d != 1 {
		t.Errorf("depth = %d, want 1", p.d)
	}
	if anchor != 1 {
		t.Errorf("anchor = %d, want node 1 (the unfinished child)", anchor)
	}
	if len(ports) != 1 || ports[0] != 0 {
		t.Errorf("path = %v, want [0]", ports)
	}
}

func TestPlannerDoneWhenAllFinished(t *testing.T) {
	p, _ := plannerHarness(t)
	p.assign()
	p.readReturn(tree.Root, []bool{true, true})
	if _, _, ok := p.assign(); ok {
		t.Fatal("assignment after everything finished")
	}
	if !p.done {
		t.Error("planner not done")
	}
	// Done is sticky.
	if _, _, ok := p.assign(); ok {
		t.Error("assignment after done")
	}
}

func TestPlannerIgnoresStaleReturns(t *testing.T) {
	p, _ := plannerHarness(t)
	p.assign()
	p.readReturn(tree.Root, []bool{false, true}) // advance to depth 1, A={1}
	p.assign()
	// A stale return from the root (no longer an anchor) must not change R
	// or A'/R', even if it claims everything finished.
	p.readReturn(tree.Root, []bool{true, true})
	if p.returned[1] {
		t.Error("stale return retired a current anchor")
	}
	if p.done {
		t.Error("stale return finished the planner")
	}
	// A genuine return from anchor 1 with its child (port 1 → node 3)
	// unfinished keeps node 3 alive for depth 2.
	p.readReturn(1, []bool{false, false})
	anchor, ports, ok := p.assign()
	if !ok || anchor != 3 {
		t.Fatalf("anchor = %d ok=%v, want node 3", anchor, ok)
	}
	if len(ports) != 2 || ports[0] != 0 || ports[1] != 1 {
		t.Errorf("path = %v, want [0 1]", ports)
	}
	if p.d != 2 {
		t.Errorf("depth = %d, want 2", p.d)
	}
}

func TestPlannerMinLoadSelection(t *testing.T) {
	p, _ := plannerHarness(t)
	p.assign()
	// Advance with both children unfinished: A = {1, 2}.
	p.readReturn(tree.Root, []bool{false, false})
	a1, _, _ := p.assign()
	a2, _, _ := p.assign()
	if a1 == a2 {
		t.Errorf("two assignments landed on the same anchor %d", a1)
	}
	// Third robot joins the anchor that a return just freed.
	p.readReturn(a1, []bool{false, false})
	if p.returned[a1] != true {
		t.Error("anchor not retired")
	}
	a3, _, ok := p.assign()
	if !ok || a3 != a2 {
		t.Errorf("third assignment = %d, want remaining anchor %d", a3, a2)
	}
}

func TestDownPorts(t *testing.T) {
	if lo, hi := downPorts(tree.Root, 4); lo != 0 || hi != 3 {
		t.Errorf("root ports = [%d,%d], want [0,3]", lo, hi)
	}
	if lo, hi := downPorts(5, 4); lo != 1 || hi != 3 {
		t.Errorf("non-root ports = [%d,%d], want [1,3]", lo, hi)
	}
	if lo, hi := downPorts(5, 1); lo != 1 || hi != 0 {
		t.Errorf("leaf ports = [%d,%d], want empty range", lo, hi)
	}
}

func TestSortNodeIDs(t *testing.T) {
	s := []tree.NodeID{5, 1, 4, 1, 0}
	sortNodeIDs(s)
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted: %v", s)
		}
	}
}
