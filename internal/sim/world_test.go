package sim

import (
	"errors"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// soloDFS is the classic single-robot online depth-first search (§1 of the
// paper): go through an adjacent unexplored edge if possible, otherwise go up
// towards the root. Robots other than 0 stay put. It exercises every move
// kind and terminates in exactly 2(n−1) rounds.
type soloDFS struct{}

func (soloDFS) SelectMoves(v *View, _ []ExploreEvent) ([]Move, error) {
	moves := make([]Move, v.K())
	for i := range moves {
		moves[i] = Move{Kind: Stay}
	}
	pos := v.Pos(0)
	if tk, ok := v.ReserveDangling(pos); ok {
		moves[0] = Move{Kind: Explore, Ticket: tk}
	} else if pos != tree.Root {
		moves[0] = Move{Kind: Up}
	}
	return moves, nil
}

func TestSoloDFSExploresEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tr := range []*tree.Tree{
		tree.Path(10), tree.Star(10), tree.KAry(2, 4),
		tree.Random(150, 12, rng), tree.Spider(5, 6),
	} {
		w, err := NewWorld(tr, 3)
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		res, err := Run(w, soloDFS{}, 0)
		if err != nil {
			t.Fatalf("%s: Run: %v", tr, err)
		}
		if !res.FullyExplored {
			t.Errorf("%s: not fully explored", tr)
		}
		if !res.AllAtRoot {
			t.Errorf("%s: robots not back at root", tr)
		}
		if want := 2 * (tr.N() - 1); res.Rounds != want {
			t.Errorf("%s: DFS rounds = %d, want %d", tr, res.Rounds, want)
		}
		if res.EdgeExplorations != tr.N()-1 {
			t.Errorf("%s: edge explorations = %d, want %d", tr, res.EdgeExplorations, tr.N()-1)
		}
	}
}

func TestNewWorldErrors(t *testing.T) {
	if _, err := NewWorld(tree.Path(3), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSingleNodeTreeTerminatesImmediately(t *testing.T) {
	w, err := NewWorld(tree.Path(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, soloDFS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || !res.FullyExplored || !res.AllAtRoot {
		t.Errorf("got %+v", res)
	}
}

func TestApplyRejectsUpFromRoot(t *testing.T) {
	w, _ := NewWorld(tree.Path(3), 1)
	if _, _, err := w.Apply([]Move{{Kind: Up}}); err == nil {
		t.Error("Up from root accepted")
	}
}

func TestApplyRejectsWrongMoveCount(t *testing.T) {
	w, _ := NewWorld(tree.Path(3), 2)
	if _, _, err := w.Apply([]Move{{Kind: Stay}}); err == nil {
		t.Error("1 move for 2 robots accepted")
	}
}

func TestApplyRejectsInvalidKind(t *testing.T) {
	w, _ := NewWorld(tree.Path(3), 1)
	if _, _, err := w.Apply([]Move{{Kind: 0}}); err == nil {
		t.Error("zero move kind accepted")
	}
}

func TestApplyRejectsDownToUnexploredOrNonChild(t *testing.T) {
	w, _ := NewWorld(tree.Path(3), 1)
	if _, _, err := w.Apply([]Move{{Kind: Down, Child: 1}}); err == nil {
		t.Error("Down to unexplored child accepted")
	}
	w2, _ := NewWorld(tree.Star(4), 1)
	if _, _, err := w2.Apply([]Move{{Kind: Down, Child: 99}}); err == nil {
		t.Error("Down to out-of-range child accepted")
	}
}

func TestApplyRejectsStaleTicket(t *testing.T) {
	w, _ := NewWorld(tree.Star(4), 1)
	tk, ok := w.View().ReserveDangling(tree.Root)
	if !ok {
		t.Fatal("no dangling at root of star")
	}
	// Burn a round so the ticket goes stale.
	if _, _, err := w.Apply([]Move{{Kind: Stay}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Apply([]Move{{Kind: Explore, Ticket: tk}}); err == nil {
		t.Error("stale ticket accepted")
	}
}

func TestApplyRejectsTicketFromWrongNode(t *testing.T) {
	// Tree: root -> a -> b; robot explores a first.
	w, _ := NewWorld(tree.Path(3), 1)
	v := w.View()
	tk, _ := v.ReserveDangling(tree.Root)
	if _, _, err := w.Apply([]Move{{Kind: Explore, Ticket: tk}}); err != nil {
		t.Fatal(err)
	}
	// Robot now at node 1; reserve dangling at node 1, then try to use it
	// after moving up (position mismatch).
	tk2, ok := v.ReserveDangling(1)
	if !ok {
		t.Fatal("expected dangling at node 1")
	}
	// Craft a world state where the robot is at root but uses tk2 (from node 1).
	_ = tk2
	if _, _, err := w.Apply([]Move{{Kind: Up}}); err != nil {
		t.Fatal(err)
	}
	tk3, ok := v.ReserveDangling(1)
	if !ok {
		t.Fatal("expected dangling at node 1 still")
	}
	if _, _, err := w.Apply([]Move{{Kind: Explore, Ticket: tk3}}); err == nil {
		t.Error("ticket from non-current node accepted")
	}
}

func TestReservationEnforcesClaim2(t *testing.T) {
	// Star with 3 leaves, 5 robots at root: at most 3 reservations per round.
	w, _ := NewWorld(tree.Star(4), 5)
	v := w.View()
	if got := v.DanglingAt(tree.Root); got != 3 {
		t.Fatalf("DanglingAt(root) = %d, want 3", got)
	}
	var tickets []Ticket
	for {
		tk, ok := v.ReserveDangling(tree.Root)
		if !ok {
			break
		}
		tickets = append(tickets, tk)
	}
	if len(tickets) != 3 {
		t.Fatalf("reserved %d dangling edges, want 3", len(tickets))
	}
	if got := v.UnreservedDanglingAt(tree.Root); got != 0 {
		t.Errorf("UnreservedDanglingAt = %d, want 0", got)
	}
	// All three tickets lead to distinct children.
	seen := map[tree.NodeID]bool{}
	for _, tk := range tickets {
		if seen[tk.child] {
			t.Error("two tickets for the same dangling edge")
		}
		seen[tk.child] = true
	}
	moves := []Move{
		{Kind: Explore, Ticket: tickets[0]},
		{Kind: Explore, Ticket: tickets[1]},
		{Kind: Explore, Ticket: tickets[2]},
		{Kind: Stay},
		{Kind: Stay},
	}
	events, moved, err := w.Apply(moves)
	if err != nil {
		t.Fatal(err)
	}
	if !moved || len(events) != 3 {
		t.Errorf("moved=%v events=%d, want true/3", moved, len(events))
	}
	if !w.FullyExplored() {
		t.Error("star not fully explored after one round")
	}
	// Reservations reset next round: nothing left to reserve.
	if _, ok := v.ReserveDangling(tree.Root); ok {
		t.Error("reservation succeeded with no dangling edges")
	}
}

func TestViewExploredChildrenAndCounters(t *testing.T) {
	// root with children a,b; a with child c.
	b := tree.NewBuilder()
	a := b.AddChild(tree.Root)
	b.AddChild(tree.Root)
	b.AddChild(a)
	tr := b.Build()

	w, _ := NewWorld(tr, 1)
	v := w.View()
	if v.ExploredCount() != 1 {
		t.Fatalf("ExploredCount = %d", v.ExploredCount())
	}
	if !v.HasDanglingAnywhere() {
		t.Fatal("expected dangling edges at start")
	}
	if got := len(v.ExploredChildren(tree.Root)); got != 0 {
		t.Fatalf("ExploredChildren = %d, want 0", got)
	}
	tk, _ := v.ReserveDangling(tree.Root)
	if _, _, err := w.Apply([]Move{{Kind: Explore, Ticket: tk}}); err != nil {
		t.Fatal(err)
	}
	if got := len(v.ExploredChildren(tree.Root)); got != 1 {
		t.Errorf("ExploredChildren(root) = %d, want 1", got)
	}
	if got := v.DanglingAt(tree.Root); got != 1 {
		t.Errorf("DanglingAt(root) = %d, want 1", got)
	}
	if got := v.DepthOf(v.Pos(0)); got != 1 {
		t.Errorf("DepthOf(pos) = %d, want 1", got)
	}
	if got := v.Parent(v.Pos(0)); got != tree.Root {
		t.Errorf("Parent(pos) = %d, want root", got)
	}
	if !v.Explored(a) || v.Explored(3) {
		t.Error("Explored flags wrong")
	}
}

func TestRunRoundLimit(t *testing.T) {
	// An algorithm that never stops moving: bounce between root and child.
	w, _ := NewWorld(tree.Path(2), 1)
	_, err := Run(w, bouncer{}, 10)
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

type bouncer struct{}

func (bouncer) SelectMoves(v *View, _ []ExploreEvent) ([]Move, error) {
	if v.Pos(0) == tree.Root {
		if tk, ok := v.ReserveDangling(tree.Root); ok {
			return []Move{{Kind: Explore, Ticket: tk}}, nil
		}
		return []Move{{Kind: Down, Child: v.ExploredChildren(tree.Root)[0]}}, nil
	}
	return []Move{{Kind: Up}}, nil
}

func TestMetricsAccounting(t *testing.T) {
	w, _ := NewWorld(tree.Path(4), 2)
	res, err := Run(w, soloDFS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 6 {
		t.Errorf("Moves = %d, want 6", res.Moves)
	}
	if res.MovesPerRobot[0] != 6 || res.MovesPerRobot[1] != 0 {
		t.Errorf("MovesPerRobot = %v", res.MovesPerRobot)
	}
	// Robot 1 stays during all 6 moving rounds.
	if res.StillRobotRounds != 6 {
		t.Errorf("StillRobotRounds = %d, want 6", res.StillRobotRounds)
	}
	if res.TotalRounds != res.Rounds+1 {
		t.Errorf("TotalRounds = %d, Rounds = %d", res.TotalRounds, res.Rounds)
	}
	// Metrics are copies: mutating the result must not affect the world.
	res.MovesPerRobot[0] = 999
	if w.Metrics().MovesPerRobot[0] == 999 {
		t.Error("Metrics returned shared slice")
	}
}

func TestDiscoveredEdgeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := tree.Random(80, 9, rng)
	w, _ := NewWorld(tr, 2)
	if _, err := Run(w, soloDFS{}, 0); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.DiscoveredEdges != tr.N()-1 {
		t.Errorf("DiscoveredEdges = %d, want %d", m.DiscoveredEdges, tr.N()-1)
	}
	if w.View().HasDanglingAnywhere() {
		t.Error("dangling edges remain after full exploration")
	}
}
