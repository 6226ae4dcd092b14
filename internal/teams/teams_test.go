package teams

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
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
		var g grouper
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
			err := g.each(v, func(v *sim.View, node tree.NodeID, robots []int32) error {
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

// TestCountsResetEqualsFresh checks, under both rules, that Reset empties
// a used walk's counts and that the walk then counts a new run round for
// round as a fresh one does.
func TestCountsResetEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big, small := tree.Random(400, 8, rng), tree.Random(60, 5, rng)
	history := func(a *Team, tr *tree.Tree, k int) [][]int32 {
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		var h [][]int32
		if _, err := sim.RunContext(context.Background(), w, a, 0, nil, func(_ []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
			h = append(h, slices.Clone(a.open))
			return !moved, nil
		}); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, rc := range rules {
		used := New(16, rc.name, rc.rule)
		history(used, big, 16)
		used.Reset(3)
		if len(used.open) != 0 {
			t.Fatalf("%s: Reset left %d counts", rc.name, len(used.open))
		}
		got, want := history(used, small, 3), history(New(3, rc.name, rc.rule), small, 3)
		if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Errorf("%s: a reset walk counts a new run differently from a fresh one", rc.name)
		}
	}
}

// walk runs k robots at random on tr for the given number of rounds,
// folding each round's explores into c before the next, and returns the
// world with the explores of its last round.
func walk(t *testing.T, c *counts, tr *tree.Tree, k, rounds int) (*sim.World, []sim.ExploreEvent) {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	moves := make([]sim.Move, k)
	var events []sim.ExploreEvent
	for round := 0; round < rounds; round++ {
		c.update(w.View(), events)
		randomMoves(w.View(), rng, moves)
		if events, _, err = w.Apply(moves); err != nil {
			t.Fatal(err)
		}
		if got := openCounts(w.View(), events); !slices.Equal(got, *c) {
			t.Fatalf("round %d: openCounts = %v, update counted %v", round, got, *c)
		}
	}
	return w, events
}

// TestCountsRestoreRefusesOtherCounts: SnapshotCounts writes k, whether a
// round has run and the counts update holds, and RestoreCounts gives those
// counts back. It accepts nothing else: a count one off, a node short, or
// a flag that disagrees with the round is refused with snap.ErrCorrupt,
// and a checkpoint for another k with a plain error; both errors start
// with the algorithm's name.
func TestCountsRestoreRefusesOtherCounts(t *testing.T) {
	var c counts
	w, events := walk(t, &c, tree.Random(200, 8, rand.New(rand.NewSource(11))), 4, 40)
	encode := func(k int, seeded bool, vals []int32) []byte {
		var e snap.Encoder
		e.Int(k)
		e.Bool(seeded)
		e.Int32s(vals)
		return e.Bytes()
	}
	var e snap.Encoder
	SnapshotCounts(&e, 4, w.View(), events)
	if !bytes.Equal(e.Bytes(), encode(4, true, c)) {
		t.Fatal("SnapshotCounts does not write k, the flag and the counts update holds")
	}
	if got, err := RestoreCounts(snap.NewDecoder(e.Bytes()), "cte", 4, w.View(), events); err != nil || !slices.Equal(got, c) {
		t.Fatalf("RestoreCounts = %v, %v; want the counts %v", got, err, c)
	}

	off := slices.Clone(c)
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
		"a count one off":       {encode(4, true, off), w, events},
		"a node short":          {encode(4, true, c[:len(c)-1]), w, events},
		"unseeded after rounds": {encode(4, false, nil), w, events},
		"seeded before a round": {encode(1, true, []int32{1}), fresh, nil},
	} {
		_, err := RestoreCounts(snap.NewDecoder(tc.data), "treemining", tc.w.View().K(), tc.w.View(), tc.pending)
		if !errors.Is(err, snap.ErrCorrupt) || !strings.HasPrefix(err.Error(), "treemining: ") {
			t.Errorf("%s: RestoreCounts = %v, want a treemining: snap.ErrCorrupt", name, err)
		}
	}
	_, err = RestoreCounts(snap.NewDecoder(encode(5, true, c)), "potential", 4, w.View(), events)
	if err == nil || errors.Is(err, snap.ErrCorrupt) || !strings.HasPrefix(err.Error(), "potential: ") {
		t.Errorf("another k: RestoreCounts = %v, want a potential: error", err)
	}
}

// randomSplit draws a split problem: 1–12 targets with weights from 1 to
// 50, skewed towards small ones so that fractional parts tie, and a team
// of 1–40 robots.
func randomSplit(rng *rand.Rand) ([]target, []int32) {
	targets := make([]target, 1+rng.Intn(12))
	for i := range targets {
		targets[i].weight = 1 + rng.Intn(1+rng.Intn(50))
	}
	return targets, make([]int32, 1+rng.Intn(40))
}

// TestEvenRule: over random targets and team sizes, every robot gets a
// valid target, and robot j gets target j mod L.
func TestEvenRule(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		targets, to := randomSplit(rng)
		Even(targets, to)
		for j, i := range to {
			if int(i) != j%len(targets) {
				t.Fatalf("trial %d: %d targets, robot %d got target %d, want %d", trial, len(targets), j, i, j%len(targets))
			}
		}
	}
}

// TestProportionalRule: over random weights and team sizes, every robot
// gets a valid target and the robots fill the targets in order; target i
// gets ⌊g·wᵢ/W⌋ robots or one more, so g in total, and the targets that
// get one more are those with the largest fractional parts g·wᵢ mod W,
// ties broken toward the earlier target.
func TestProportionalRule(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		targets, to := randomSplit(rng)
		g, total := len(to), 0
		for _, tg := range targets {
			total += tg.weight
		}
		Proportional(targets, to)
		got := make([]int, len(targets))
		for j, i := range to {
			if i < 0 || int(i) >= len(targets) || (j > 0 && i < to[j-1]) {
				t.Fatalf("trial %d: robot %d got target %d after %v", trial, j, i, to[:j])
			}
			got[i]++
		}
		extra := make([]bool, len(targets))
		for i, tg := range targets {
			floor := g * tg.weight / total
			if got[i] != floor && got[i] != floor+1 {
				t.Fatalf("trial %d: target %d (weight %d of %d) got %d of %d robots, want %d or %d",
					trial, i, tg.weight, total, got[i], g, floor, floor+1)
			}
			extra[i] = got[i] > floor
		}
		frac := func(i int) int { return g * targets[i].weight % total }
		for i := range targets {
			for j := range targets {
				if extra[i] && !extra[j] && (frac(i) < frac(j) || frac(i) == frac(j) && i > j) {
					t.Fatalf("trial %d: target %d (fraction %d) got an extra robot before target %d (fraction %d)",
						trial, i, frac(i), j, frac(j))
				}
			}
		}
	}
}
