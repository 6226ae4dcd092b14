package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// warmWorld returns a world that whole-tree BFDN has run for the given
// number of rounds, with the instance that ran it and the pending events,
// so restored nodes have a chance of naming explored nodes.
func warmWorld(tb testing.TB, tr *tree.Tree, k, rounds int, opts ...Option) (*sim.World, *Algorithm, []sim.ExploreEvent) {
	tb.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		tb.Fatal(err)
	}
	a := NewAlgorithm(k, opts...)
	var events []sim.ExploreEvent
	if rounds > 0 {
		if _, err := sim.RunContext(context.Background(), w, a, 0, nil, func(_ []sim.Move, ev []sim.ExploreEvent, _ bool) (bool, error) {
			events = ev
			return w.Round() == rounds, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return w, a, events
}

func state(a *Algorithm) []byte {
	var e snap.Encoder
	a.b.SnapshotState(&e)
	return e.Bytes()
}

// movesOfK fails the test when the algorithm it wraps returns no error
// and a move set whose length is not k; the world would refuse that set
// with an error a fuzz target could not tell from a refusal.
type movesOfK struct {
	t *testing.T
	sim.Algorithm
}

func (m movesOfK) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	moves, err := m.Algorithm.SelectMoves(v, events)
	if err == nil && len(moves) != v.K() {
		m.t.Fatalf("round %d: %d moves for %d robots", v.Round(), len(moves), v.K())
	}
	return moves, err
}

// lengthState encodes k robots at the root, each with an empty BF stack
// except robot 0's, whose length prefix is stack, followed by an
// excursion log of length excursions and no more bytes: the prefixes
// promise far more entries than the buffer holds.
func lengthState(k, stack, excursions int) []byte {
	var e snap.Encoder
	robots := make([]int, k)
	for i := range robots {
		robots[i] = i
	}
	e.Ints(robots)
	e.Int32(int32(tree.Root))
	e.Int(0)
	e.Bool(true)
	for i := 0; i < k; i++ {
		e.Int32(int32(tree.Root))
		e.Int(0)
		if i == 0 {
			e.Int(stack)
			if stack > 0 {
				return e.Bytes()
			}
		} else {
			e.Int(0)
		}
		e.Int(0)
		e.Int(0)
		e.Bool(false)
	}
	e.Ints(nil)
	e.Int(excursions)
	return e.Bytes()
}

// TestCorruptRestoreIsAnError feeds checkpoints that name robots or nodes
// the world does not hold, or promise more entries than they carry:
// RestoreState must return an error, where an unchecked id used to index
// past the end of a table and panic, a length prefix used to grow a slice
// before the error, and an unchecked anchor used to grow the open-node
// index and run on.
func TestCorruptRestoreIsAnError(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(5)))
	const k, rounds = 4, 30
	unexplored := func(w *sim.World) tree.NodeID {
		for u := tree.NodeID(tr.N() - 1); u > 0; u-- {
			if !w.View().Explored(u) {
				return u
			}
		}
		t.Fatal("every node is explored")
		return tree.Nil
	}
	// minOpen is the depth the next re-anchor draws from.
	minOpen := func(b *BFDN) int {
		d, ok := b.idx.MinOpenDepth(-1)
		if !ok {
			t.Fatal("no open node left")
		}
		return d
	}
	for name, corrupt := range map[string]func(w *sim.World, b *BFDN){
		"negative robot":          func(_ *sim.World, b *BFDN) { b.robots[1] = -5 },
		"robot past k":            func(_ *sim.World, b *BFDN) { b.robots[1] = 9 },
		"robot listed twice":      func(_ *sim.World, b *BFDN) { b.robots[1] = 0 },
		"negative root":           func(_ *sim.World, b *BFDN) { b.root = -3 },
		"root past the tree":      func(_ *sim.World, b *BFDN) { b.root, b.seeded = 1<<20, false },
		"root at the wrong depth": func(_ *sim.World, b *BFDN) { b.rootDepth = 2 },
		"root below the tree's root": func(w *sim.World, b *BFDN) {
			// A state consistent under another root, with robots outside it.
			u := w.View().ExploredChildren(tree.Root)[0]
			b.root, b.rootDepth = u, 1
			b.idx.Reset()
			for j := range b.rs {
				b.rs[j].anchor, b.rs[j].anchorDepth, b.rs[j].stack = u, 0, nil
			}
		},
		"anchor past the tree": func(_ *sim.World, b *BFDN) { b.rs[0].anchor = 1 << 20 },
		"anchor at the wrong depth": func(_ *sim.World, b *BFDN) {
			b.rs[0].anchor, b.rs[0].anchorDepth = tree.Root, 3
		},
		"unexplored anchor": func(w *sim.World, b *BFDN) {
			u := unexplored(w)
			b.rs[0].anchor, b.rs[0].anchorDepth = u, tr.DepthOf(u)
		},
		"negative BF stack node":   func(_ *sim.World, b *BFDN) { b.rs[0].stack = []tree.NodeID{-2} },
		"BF stack node past tree":  func(_ *sim.World, b *BFDN) { b.rs[0].stack = []tree.NodeID{1 << 20} },
		"unexplored BF stack node": func(w *sim.World, b *BFDN) { b.rs[0].stack = []tree.NodeID{unexplored(w)} },
		"open node past the tree": func(_ *sim.World, b *BFDN) {
			b.idx.AddOpen(tree.NodeID(tr.N()+5), minOpen(b))
		},
		"open node at the wrong depth": func(w *sim.World, b *BFDN) {
			d := minOpen(b)
			for u := tree.NodeID(1); int(u) < tr.N(); u++ {
				if w.View().DanglingAt(u) > 0 && tr.DepthOf(u) > d {
					b.idx.Close(u, tr.DepthOf(u))
					b.idx.AddOpen(u, d)
					return
				}
			}
			t.Fatal("no open node below the working depth")
		},
	} {
		w, warm, events := warmWorld(t, tr, k, rounds)
		corrupt(w, warm.b)
		a := NewAlgorithm(k)
		if err := a.RestoreState(snap.NewDecoder(state(warm)), w.View(), events); err == nil {
			t.Errorf("%s: restored without an error", name)
		}
	}

	w, _, events := warmWorld(t, tr, k, rounds)
	for name, data := range map[string][]byte{
		"BF stack length past the buffer":      lengthState(k, 20_000_000, 0),
		"excursion log length past the buffer": lengthState(k, 0, 20_000_000),
	} {
		a := NewAlgorithm(k)
		if err := a.RestoreState(snap.NewDecoder(data), w.View(), events); err == nil {
			t.Errorf("%s: restored without an error", name)
		}
		if c := cap(a.b.rs[0].stack) + cap(a.b.stats.Excursions); c > len(data) {
			t.Errorf("%s: grew %d entries from a %d-byte buffer", name, c, len(data))
		}
	}
}

// FuzzRestore feeds arbitrary bytes to RestoreState, with and without the
// shortcut ablation, against a small world a few rounds into a run and the
// explores of its last round, and resumes an accepted state for up to five
// rounds: each must be an error or a move set for every robot, never a
// panic. testdata/fuzz/FuzzRestore keeps an input it found: an unseeded
// state whose robots' anchor depths seeding used to leave in place.
func FuzzRestore(f *testing.F) {
	tr := tree.Random(60, 6, rand.New(rand.NewSource(3)))
	const k, rounds = 3, 9
	for _, shortcut := range []bool{false, true} {
		var opts []Option
		if shortcut {
			opts = append(opts, WithShortcutReanchor())
		}
		for _, r := range []int{0, 1, rounds, 2 * rounds} {
			_, a, _ := warmWorld(f, tr, k, r, opts...)
			f.Add(state(a), shortcut)
		}
	}
	for _, corrupt := range []func(b *BFDN){
		func(b *BFDN) { b.robots[1] = -5 },
		func(b *BFDN) { b.robots[1] = 9 },
		func(b *BFDN) { b.root, b.seeded = 1<<20, false },
		func(b *BFDN) { b.rs[0].anchor = 1 << 20 },
		func(b *BFDN) { b.rs[0].stack = []tree.NodeID{1 << 20} },
	} {
		_, a, _ := warmWorld(f, tr, k, rounds)
		corrupt(a.b)
		f.Add(state(a), false)
	}
	f.Add(lengthState(k, 20_000_000, 0), false)
	f.Add(lengthState(k, 0, 20_000_000), true)
	f.Fuzz(func(t *testing.T, data []byte, shortcut bool) {
		var opts []Option
		if shortcut {
			opts = append(opts, WithShortcutReanchor())
		}
		w, _, events := warmWorld(t, tr, k, rounds)
		a := NewAlgorithm(k, opts...)
		if a.RestoreState(snap.NewDecoder(data), w.View(), events) != nil {
			return
		}
		_, _ = sim.RunContext(context.Background(), w, movesOfK{t, a}, int64(w.Round())+5, events, nil)
	})
}

// TestRestoredInstanceStaysInItsSubtree: a restored instance whose open
// node lies outside its root's subtree is refused by RestoreState, and one
// whose robot does by CheckRobots if it has seeded, or by seeding on its
// first round if it has not. A robot outside explored there, and the index
// filed its finds at depths above the root; an open node outside became an
// anchor whose path home walked up past the tree's root.
func TestRestoredInstanceStaysInItsSubtree(t *testing.T) {
	tr := tree.KAry(3, 5)
	// The first round with explored nodes x and y, y open, at x's depth or
	// deeper and outside x's subtree.
	var w *sim.World
	x, y := tree.Nil, tree.Nil
	for rounds := 1; y == tree.Nil; rounds++ {
		w, _, _ = warmWorld(t, tr, 1, rounds)
		v := w.View()
		for u := tree.NodeID(1); int(u) < tr.N(); u++ {
			for c := tree.NodeID(1); int(c) < tr.N(); c++ {
				if v.Explored(u) && v.Explored(c) && v.DanglingAt(c) > 0 && tr.DepthOf(c) >= tr.DepthOf(u) && !tr.IsAncestor(u, c) {
					x, y = u, c
				}
			}
		}
	}
	// Move the robot to x, inside x's subtree and outside y's.
	var e snap.Encoder
	w.Snapshot(&e)
	d := snap.NewDecoder(e.Bytes())
	d.Int()
	d.Int()
	d.Int32()
	var at snap.Encoder
	at.Int(1)
	at.Int(tr.N())
	at.Int32(int32(x))
	ckpt := append(at.Bytes(), e.Bytes()[len(e.Bytes())-d.Rest():]...)
	for _, c := range []struct {
		name   string
		root   tree.NodeID
		seeded bool
	}{{"robot outside", y, true}, {"robot outside, unseeded", y, false}, {"open node outside", x, true}} {
		w, err := sim.NewWorld(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Restore(snap.NewDecoder(ckpt)); err != nil {
			t.Fatal(err)
		}
		src := NewInstance([]int{0}, c.root)
		src.rootDepth, src.seeded = tr.DepthOf(c.root), c.seeded
		src.rs[0].anchor = c.root
		if c.root == x {
			src.idx.AddOpen(y, tr.DepthOf(y)-tr.DepthOf(x))
		}
		var e snap.Encoder
		src.SnapshotState(&e)
		b := NewInstance([]int{0}, c.root)
		err = b.RestoreState(snap.NewDecoder(e.Bytes()), w.View())
		if err == nil && b.Seeded() {
			err = b.CheckRobots(w.View())
		}
		if err == nil {
			err = b.Decide(w.View(), nil, make([]sim.Move, 1))
		}
		if err == nil || !strings.Contains(err.Error(), "outside") && !strings.Contains(err.Error(), "under") {
			t.Errorf("%s: restore = %v, want the subtree refused", c.name, err)
		}
	}
}
