package levelwise

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// warmWorld returns a world that Levelwise has run for the given number of
// rounds, so restored nodes have a chance of naming explored nodes.
func warmWorld(tb testing.TB, tr *tree.Tree, k, rounds int) (*sim.World, *Levelwise) {
	tb.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		tb.Fatal(err)
	}
	l := New(k)
	if rounds > 0 {
		if _, err := sim.RunContext(context.Background(), w, l, 0, nil, func([]sim.Move, []sim.ExploreEvent, bool) (bool, error) {
			return w.Round() == rounds, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return w, l
}

func state(l *Levelwise) []byte {
	var e snap.Encoder
	l.SnapshotState(&e)
	return e.Bytes()
}

// corruptState encodes a k-robot state with the given open-list entries
// and robot 0's descent path; the other robots are idle.
func corruptState(k int, entries []entry, path []tree.NodeID) []byte {
	var e snap.Encoder
	e.Int(k)
	e.Bool(true)
	e.Int(1)
	e.Int(len(entries))
	for _, en := range entries {
		e.Int32(int32(en.node))
		e.Int(int(en.count))
	}
	for i := 0; i < k; i++ {
		if i == 0 {
			e.Int(len(path))
			for _, u := range path {
				e.Int32(int32(u))
			}
		} else {
			e.Int(0)
		}
		e.Int32(int32(tree.Nil))
		e.Int(0)
	}
	return e.Bytes()
}

// TestCorruptRestoreIsAnError feeds checkpoints naming nodes the world does
// not hold: RestoreState or the next SelectMoves must return an error, where
// an unchecked node used to index past the end of a table and panic.
func TestCorruptRestoreIsAnError(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(5)))
	const k = 4
	for name, data := range map[string][]byte{
		"path node past the tree": corruptState(k, nil, []tree.NodeID{1 << 20}),
		"open node past the tree": corruptState(k, []entry{{1 << 20, 1}}, nil),
		"negative path node":      corruptState(k, nil, []tree.NodeID{-3}),
		"negative open node":      corruptState(k, []entry{{-2, 1}}, nil),
		"open node listed twice":  corruptState(k, []entry{{0, 1}, {0, 1}}, nil),
		"unexplored open node":    corruptState(k, []entry{{tree.NodeID(tr.N() - 1), 1}}, nil),
	} {
		w, _ := warmWorld(t, tr, k, 0)
		l := New(k)
		if err := l.RestoreState(snap.NewDecoder(data)); err != nil {
			continue
		}
		if _, err := l.SelectMoves(w.View(), nil); err == nil {
			t.Errorf("%s: restored and selected moves without an error", name)
		}
	}
}

// FuzzRestore feeds arbitrary bytes to RestoreState and runs one
// SelectMoves on a small world a few rounds into a run: the result must be
// an error or a move set, never a panic.
func FuzzRestore(f *testing.F) {
	tr := tree.Random(60, 6, rand.New(rand.NewSource(3)))
	const k, rounds = 3, 9
	for _, r := range []int{0, 1, rounds, 2 * rounds} {
		_, l := warmWorld(f, tr, k, r)
		f.Add(state(l))
	}
	f.Add(corruptState(k, nil, []tree.NodeID{1 << 20}))
	f.Add(corruptState(k, []entry{{1 << 20, 1}, {0, 2}}, []tree.NodeID{2, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, _ := warmWorld(t, tr, k, rounds)
		l := New(k)
		if l.RestoreState(snap.NewDecoder(data)) != nil {
			return
		}
		if moves, err := l.SelectMoves(w.View(), nil); err == nil && len(moves) != k {
			t.Fatalf("%d moves for %d robots", len(moves), k)
		}
	})
}
