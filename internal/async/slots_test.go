package async

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"bfdn/internal/tree"
)

// slotChecker is a random strategy that checks the engine's slot index at
// every decision before making one: claim, climb, descend into an explored
// child, or climb home and park once nothing is left to claim.
type slotChecker struct {
	t      *testing.T
	tr     *tree.Tree
	rng    *rand.Rand
	checks int
	from   int // decisions of a run before its first check
	seen   int
}

func (c *slotChecker) String() string                                  { return "slotchecker" }
func (c *slotChecker) Reset(int)                                       { c.seen = 0 }
func (c *slotChecker) OnExplored(View, tree.NodeID, tree.NodeID, bool) {}

// unclaimedSlots is the reference enumeration: a recursive DFS of the
// explored tree that lists each node's explored child subtrees in port
// order and then the node once per unclaimed edge.
func (c *slotChecker) unclaimedSlots(v View) []tree.NodeID {
	var slots []tree.NodeID
	var visit func(u tree.NodeID)
	visit = func(u tree.NodeID) {
		for _, ch := range c.tr.Children(u) {
			if v.e.explored[ch] {
				visit(ch)
			}
		}
		for i := 0; i < v.Unclaimed(u); i++ {
			slots = append(slots, u)
		}
	}
	visit(tree.Root)
	return slots
}

func (c *slotChecker) Decide(v View, i int) (Move, error) {
	if c.seen++; c.seen > c.from {
		c.check(v)
	}
	pos := v.Pos(i)
	var kids []tree.NodeID
	for _, ch := range c.tr.Children(pos) {
		if v.e.explored[ch] {
			kids = append(kids, ch)
		}
	}
	open := c.unclaimedSlots(v)
	switch x := c.rng.Intn(4); {
	case v.Unclaimed(pos) > 0 && (x == 0 || len(open) > 0 && open[0] == pos):
		return Move{Kind: Claim}, nil
	case x == 1 && pos != tree.Root:
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	case x == 2 && len(kids) > 0:
		return Move{Kind: MoveTo, To: kids[c.rng.Intn(len(kids))]}, nil
	case len(open) > 0:
		return Move{Kind: MoveTo, To: v.Toward(pos, open[0])}, nil
	case pos != tree.Root:
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	}
	return Move{Kind: Park}, nil
}

// check compares OpenSlots and every OpenSlot with the reference, and
// Toward with the parent walk it replaced on random explored pairs.
func (c *slotChecker) check(v View) {
	t := c.t
	t.Helper()
	c.checks++
	want := c.unclaimedSlots(v)
	if got := v.OpenSlots(); got != len(want) {
		t.Fatalf("t=%v: OpenSlots = %d, want %d", v.e.now, got, len(want))
	}
	for s, u := range want {
		if got, err := v.OpenSlot(s); err != nil || got != u {
			t.Fatalf("t=%v: OpenSlot(%d) = %d, %v; want %d", v.e.now, s, got, err, u)
		}
	}
	var explored []tree.NodeID
	for u := 0; u < c.tr.N(); u++ {
		if v.e.explored[tree.NodeID(u)] {
			explored = append(explored, tree.NodeID(u))
		}
	}
	for i := 0; i < 10; i++ {
		from, to := explored[c.rng.Intn(len(explored))], explored[c.rng.Intn(len(explored))]
		if from == to {
			continue
		}
		if got, want := v.Toward(from, to), towardWalk(v, from, to); got != want {
			t.Fatalf("t=%v: Toward(%d, %d) = %d, want %d", v.e.now, from, to, got, want)
		}
	}
}

// towardWalk is the parent walk View.Toward replaced: down into the child
// of from on the way to a deeper to, up otherwise.
func towardWalk(v View, from, to tree.NodeID) tree.NodeID {
	df, dt := v.DepthOf(from), v.DepthOf(to)
	if dt <= df {
		return v.Parent(from)
	}
	c := to
	for ; dt > df+1; dt-- {
		c = v.Parent(c)
	}
	if v.Parent(c) == from {
		return c
	}
	return v.Parent(from)
}

// TestOpenSlotsMatchDFSEnumeration runs random partial explorations on the
// continuous-time engine and checks its slot index of unclaimed edges at
// every decision: from the first one, and from a first query mid-run (the
// index builds from the claim state), across engine Resets onto other
// trees.
func TestOpenSlotsMatchDFSEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trees := []*tree.Tree{tree.Path(30), tree.Star(25), tree.Comb(8, 4), tree.KAry(3, 3)}
	for i := 0; i < 6; i++ {
		trees = append(trees, tree.Random(50+rng.Intn(200), 2+rng.Intn(15), rng))
	}
	c := &slotChecker{t: t, rng: rng}
	e, err := NewEngine(trees[0], uniformSpeeds(1), WithAlgorithm(c), WithLatency(Jitter{Frac: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range trees {
		c.tr = tr
		c.from = 0
		if ti%2 == 1 {
			c.from = rng.Intn(60)
		}
		speeds := make([]float64, 1+rng.Intn(5))
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(3))
		}
		if err := e.Reset(tr, speeds, int64(ti)); err != nil {
			t.Fatal(err)
		}
		res, err := e.RunContext(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FullyExplored || !res.AllAtRoot {
			t.Fatalf("%s: random run ended explored=%v home=%v", tr, res.FullyExplored, res.AllAtRoot)
		}
	}
	if c.checks == 0 {
		t.Fatal("no decision was checked")
	}
}

// TestResetKeepsSlotIndexOnlyWhileUsed: as for sim.World, an engine keeps
// its slot index's storage across runs that ask for slots and drops it
// after a run that never asked.
func TestResetKeepsSlotIndexOnlyWhileUsed(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(3)))
	speeds := uniformSpeeds(2)
	e, err := NewEngine(tr, speeds)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		if err := e.Reset(tr, speeds, 1); err != nil {
			t.Fatal(err)
		}
	}
	query := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if got := (View{e}).OpenSlots(); got != tr.NumChildren(tree.Root) {
			t.Fatalf("OpenSlots = %d at the start, want the root's %d edges", got, tr.NumChildren(tree.Root))
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	query()
	reset()
	kept := query()
	reset()
	reset() // after a run that never asked
	if dropped := query(); dropped <= kept {
		t.Errorf("first query after an unused run allocated %d times, after a querying run %d: the index was kept", dropped, kept)
	}
}
