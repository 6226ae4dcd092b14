package sim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// randomExplorer moves every robot at random: it explores a dangling edge,
// climbs, descends into an explored child or stays. Its runs are random
// partial explorations of the tree.
type randomExplorer struct {
	rng   *rand.Rand
	moves []Move
}

func (r *randomExplorer) SelectMoves(v *View, _ []ExploreEvent) ([]Move, error) {
	r.moves = r.moves[:0]
	for i := 0; i < v.K(); i++ {
		pos := v.Pos(i)
		m := Move{Kind: Stay}
		switch x := r.rng.Intn(4); {
		case x == 0 && v.UnreservedDanglingAt(pos) > 0:
			tk, _ := v.ReserveDangling(pos)
			m = Move{Kind: Explore, Ticket: tk}
		case x == 1 && pos != tree.Root:
			m = Move{Kind: Up}
		case x == 2 && len(v.ExploredChildren(pos)) > 0:
			kids := v.ExploredChildren(pos)
			m = Move{Kind: Down, Child: kids[r.rng.Intn(len(kids))]}
		}
		r.moves = append(r.moves, m)
	}
	return r.moves, nil
}

// dfsSlots is the reference slot enumeration: a recursive DFS of the
// explored tree that lists each node's explored child subtrees in port
// order and then the node once per dangling edge.
func dfsSlots(v *View) []tree.NodeID {
	var slots []tree.NodeID
	var visit func(u tree.NodeID)
	visit = func(u tree.NodeID) {
		for _, c := range v.ExploredChildren(u) {
			visit(c)
		}
		for i := 0; i < v.DanglingAt(u); i++ {
			slots = append(slots, u)
		}
	}
	visit(tree.Root)
	return slots
}

// towardWalk is the parent walk View.Toward replaced: down into the child
// of from on the way to a deeper to, up otherwise.
func towardWalk(v *View, from, to tree.NodeID) tree.NodeID {
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

// checkSlots compares OpenSlots and every OpenSlot with the reference
// enumeration, and Toward with the parent walk on random explored pairs.
func checkSlots(t *testing.T, w *World, rng *rand.Rand) {
	t.Helper()
	v := w.View()
	want := dfsSlots(v)
	if got := v.OpenSlots(); got != len(want) {
		t.Fatalf("round %d: OpenSlots = %d, want %d", v.Round(), got, len(want))
	}
	for s, u := range want {
		got, err := v.OpenSlot(s)
		if err != nil || got != u {
			t.Fatalf("round %d: OpenSlot(%d) = %d, %v; want %d", v.Round(), s, got, err, u)
		}
	}
	if _, err := v.OpenSlot(len(want)); err == nil {
		t.Fatalf("round %d: OpenSlot(%d) past the last slot returned no error", v.Round(), len(want))
	}
	var explored []tree.NodeID
	for u := tree.NodeID(0); len(explored) < v.ExploredCount(); u++ {
		if v.Explored(u) {
			explored = append(explored, u)
		}
	}
	for i := 0; i < 30; i++ {
		from, to := explored[rng.Intn(len(explored))], explored[rng.Intn(len(explored))]
		if from == to {
			continue
		}
		if got, want := v.Toward(from, to), towardWalk(v, from, to); got != want {
			t.Fatalf("round %d: Toward(%d, %d) = %d, want %d", v.Round(), from, to, got, want)
		}
	}
}

// TestOpenSlotsMatchDFSEnumeration drives random partial explorations and
// checks the world's slot index against the reference at every step: from
// the first round, from a first query mid-run (the index builds from the
// world's state), after Reset onto another tree, and after Restore into a
// world whose index was live on another state.
func TestOpenSlotsMatchDFSEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	trees := []*tree.Tree{tree.Path(30), tree.Star(25), tree.Comb(8, 4), tree.KAry(3, 3)}
	for i := 0; i < 6; i++ {
		trees = append(trees, tree.Random(50+rng.Intn(300), 2+rng.Intn(15), rng))
	}
	var w *World
	for ti, tr := range trees {
		k := 1 + rng.Intn(6)
		if w == nil {
			var err error
			if w, err = NewWorld(tr, k); err != nil {
				t.Fatal(err)
			}
		} else if err := w.Reset(tr, k); err != nil {
			t.Fatal(err)
		}
		alg := &randomExplorer{rng: rng}
		firstQuery := 0
		if ti%2 == 1 {
			firstQuery = rng.Intn(40)
		}
		if firstQuery == 0 {
			checkSlots(t, w, rng)
		}
		var ckpt []byte
		_, err := RunContext(context.Background(), w, alg, 400, nil, func([]Move, []ExploreEvent, bool) (bool, error) {
			if w.round >= firstQuery {
				checkSlots(t, w, rng)
			}
			if w.round == 20 {
				var e snap.Encoder
				w.Snapshot(&e)
				ckpt = e.Bytes()
			}
			return w.FullyExplored(), nil
		})
		if err != nil && !errors.Is(err, ErrRoundLimit) {
			t.Fatal(err)
		}
		checkSlots(t, w, rng)
		if ckpt != nil {
			if err := w.Restore(snap.NewDecoder(ckpt)); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, w, rng)
		}
	}
}

// TestResetKeepsSlotIndexOnlyWhileUsed: a run that follows one that asked
// for slots reuses the index's storage, and a world whose last run never
// asked drops it, so a sweep worker that has moved on to other algorithms
// does not hold an index the size of the tree. The first query after the
// drop allocates where the one after a querying run does not.
func TestResetKeepsSlotIndexOnlyWhileUsed(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(3)))
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		if err := w.Reset(tr, 2); err != nil {
			t.Fatal(err)
		}
	}
	query := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if got := w.View().OpenSlots(); got != tr.NumChildren(tree.Root) {
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

// TestRestoreRefusesInconsistentCounts: a snapshot whose explored count
// disagrees with its explored set, or whose explored-children cursor falls
// outside a node's children, is refused. The count bounds the scans that
// walk the explored set by id (a Potential checkpoint's), and a cursor
// below zero handed out a child index past the node's children.
func TestRestoreRefusesInconsistentCounts(t *testing.T) {
	tr := tree.Random(200, 8, rand.New(rand.NewSource(9)))
	for name, corrupt := range map[string]func(w *World){
		"explored count too high": func(w *World) { w.exploredCount += 3 },
		"explored count too low":  func(w *World) { w.exploredCount-- },
		"cursor below zero":       func(w *World) { w.dangling[tree.Root] = int32(tr.NumChildren(tree.Root)) + 2 },
	} {
		w, err := NewWorld(tr, 3)
		if err != nil {
			t.Fatal(err)
		}
		alg := &randomExplorer{rng: rand.New(rand.NewSource(1))}
		if _, err := RunContext(context.Background(), w, alg, 0, nil, func([]Move, []ExploreEvent, bool) (bool, error) {
			return w.round == 30, nil
		}); err != nil {
			t.Fatal(err)
		}
		corrupt(w)
		var e snap.Encoder
		w.Snapshot(&e)
		w2, err := NewWorld(tr, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Restore(snap.NewDecoder(e.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want snap.ErrCorrupt", name, err)
		}
	}
}
