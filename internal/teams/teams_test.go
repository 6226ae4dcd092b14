package teams

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// randomMoves picks a legal move for every robot: up, down an explored
// edge, across a dangling edge, or stay — so positions scatter and merge.
func randomMoves(v *sim.View, rng *rand.Rand, moves []sim.Move) {
	for i := range moves {
		p := v.Pos(i)
		kids := v.ExploredChildren(p)
		switch r := rng.Intn(4); {
		case r == 0 && p != tree.Root:
			moves[i] = sim.Move{Kind: sim.Up}
		case r == 1 && len(kids) > 0:
			moves[i] = sim.Move{Kind: sim.Down, Child: kids[rng.Intn(len(kids))]}
		default:
			if tk, ok := v.ReserveDangling(p); ok {
				moves[i] = sim.Move{Kind: sim.Explore, Ticket: tk}
			} else {
				moves[i] = sim.Move{Kind: sim.Stay}
			}
		}
	}
}

// TestEachMatchesSortedGrouping checks Each against grouping by a sort of
// (position, robot) pairs: every team once, at its lowest robot, robots in
// index order — also in the round after f failed part-way.
func TestEachMatchesSortedGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	errStop := errors.New("stop")
	for _, k := range []int{1, 2, 7, 40} {
		tr := tree.Random(300, 10, rng)
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		var g Grouper
		moves := make([]sim.Move, k)
		for round := 0; round < 200; round++ {
			v := w.View()
			// Want: teams ordered by lowest robot, each in index order.
			var want [][]int32
			for i := 0; i < k; i++ {
				first := true
				for j := 0; j < i; j++ {
					if v.Pos(j) == v.Pos(i) {
						first = false
					}
				}
				if !first {
					continue
				}
				team := []int32{int32(i)}
				for j := i + 1; j < k; j++ {
					if v.Pos(j) == v.Pos(i) {
						team = append(team, int32(j))
					}
				}
				want = append(want, team)
			}
			stopAt := -1
			if round%3 == 2 {
				stopAt = rng.Intn(len(want))
			}
			var got [][]int32
			err := g.Each(v, func(v *sim.View, node tree.NodeID, robots []int32) error {
				for _, r := range robots {
					if v.Pos(int(r)) != node {
						t.Fatalf("round %d: robot %d is not at node %d", round, r, node)
					}
				}
				got = append(got, slices.Clone(robots))
				if len(got)-1 == stopAt {
					return errStop
				}
				return nil
			})
			if stopAt >= 0 {
				if !errors.Is(err, errStop) {
					t.Fatalf("round %d: Each returned %v, want the callback's error", round, err)
				}
				want = want[:stopAt+1]
			} else if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("k=%d round %d: teams %v, want %v", k, round, got, want)
			}
			for v, h := range g.head {
				if h != -1 {
					t.Fatalf("round %d: head[%d] = %d after the pass", round, v, h)
				}
			}
			randomMoves(v, rng, moves)
			if _, _, err := w.Apply(moves); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCountsResetEqualsFresh checks that a Reset Counts snapshots like the
// zero value and then counts a new run exactly as a fresh one does.
func TestCountsResetEqualsFresh(t *testing.T) {
	run := func(c *Counts, tr *tree.Tree) []byte {
		w, events := walk(t, c, tr, 3, 50)
		var e snap.Encoder
		c.Snapshot(&e)
		var restored Counts
		if err := restored.Restore(snap.NewDecoder(e.Bytes()), w.View(), events); err != nil {
			t.Fatal(err)
		}
		var again snap.Encoder
		restored.Snapshot(&again)
		if !bytes.Equal(again.Bytes(), e.Bytes()) {
			t.Fatal("Restore(Snapshot) is not byte-identical")
		}
		return e.Bytes()
	}
	rng := rand.New(rand.NewSource(3))
	big, small := tree.Random(400, 8, rng), tree.Random(60, 5, rng)
	var used, fresh Counts
	run(&used, big)
	used.Reset()
	var e0, e1 snap.Encoder
	used.Snapshot(&e0)
	fresh.Snapshot(&e1)
	if !bytes.Equal(e0.Bytes(), e1.Bytes()) {
		t.Fatal("a reset Counts snapshots differently from the zero value")
	}
	if !bytes.Equal(run(&used, small), run(&fresh, small)) {
		t.Fatal("a reset Counts counts a new run differently from a fresh one")
	}
}

// walk runs k robots at random on tr for the given number of rounds,
// folding each round's explores into c before the next, and returns the
// world with the explores of its last round.
func walk(t *testing.T, c *Counts, tr *tree.Tree, k, rounds int) (*sim.World, []sim.ExploreEvent) {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	moves := make([]sim.Move, k)
	var events []sim.ExploreEvent
	for round := 0; round < rounds; round++ {
		c.Update(w.View(), events)
		randomMoves(w.View(), rng, moves)
		if events, _, err = w.Apply(moves); err != nil {
			t.Fatal(err)
		}
		if got := OpenCounts(w.View(), events); !slices.Equal(got, c.vals) {
			t.Fatalf("round %d: OpenCounts = %v, Update counted %v", round, got, c.vals)
		}
	}
	return w, events
}

// TestCountsRestoreRefusesOtherCounts: Restore accepts only the counts the
// world implies, seeded exactly when a round has run; a count one off, a
// node short, or a seeding flag that disagrees with the round is refused
// with snap.ErrCorrupt.
func TestCountsRestoreRefusesOtherCounts(t *testing.T) {
	var c Counts
	w, events := walk(t, &c, tree.Random(200, 8, rand.New(rand.NewSource(11))), 4, 40)
	encode := func(seeded bool, vals []int32) []byte {
		var e snap.Encoder
		e.Bool(seeded)
		e.Int32s(vals)
		return e.Bytes()
	}
	off := slices.Clone(c.vals)
	off[len(off)/2]++
	fresh, err := sim.NewWorld(tree.Path(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data    []byte
		w       *sim.World
		pending []sim.ExploreEvent
	}{
		"a count one off":       {encode(true, off), w, events},
		"a node short":          {encode(true, c.vals[:len(c.vals)-1]), w, events},
		"unseeded after rounds": {encode(false, nil), w, events},
		"seeded before a round": {encode(true, []int32{1}), fresh, nil},
	} {
		var restored Counts
		if err := restored.Restore(snap.NewDecoder(tc.data), tc.w.View(), tc.pending); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want snap.ErrCorrupt", name, err)
		}
	}
}
