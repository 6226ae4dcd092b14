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
// rounds, with the instance that ran it and the pending events, so
// restored nodes have a chance of naming explored nodes.
func warmWorld(tb testing.TB, tr *tree.Tree, k, rounds int) (*sim.World, *Levelwise, []sim.ExploreEvent) {
	tb.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		tb.Fatal(err)
	}
	l := New(k)
	var events []sim.ExploreEvent
	if rounds > 0 {
		if _, err := sim.RunContext(context.Background(), w, l, 0, nil, func(_ []sim.Move, ev []sim.ExploreEvent, _ bool) (bool, error) {
			events = ev
			return w.Round() == rounds, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return w, l, events
}

func state(l *Levelwise) []byte {
	var e snap.Encoder
	l.SnapshotState(&e, nil, nil)
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

// entry is one open node of a checkpoint and its dangling-edge count.
type entry struct {
	node  tree.NodeID
	count int32
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
// not hold: RestoreState must return an error, where an unchecked node used
// to index past the end of a table and panic.
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
		w, _, _ := warmWorld(t, tr, k, 0)
		if err := New(k).RestoreState(snap.NewDecoder(data), w.View(), nil); err == nil {
			t.Errorf("%s: restored without an error", name)
		}
	}
}

// FuzzRestore feeds arbitrary bytes to RestoreState against a small world
// a few rounds into a run and the explores of its last round, and resumes
// an accepted state for up to five rounds: each must be an error or a move
// set for every robot, never a panic.
func FuzzRestore(f *testing.F) {
	tr := tree.Random(60, 6, rand.New(rand.NewSource(3)))
	const k, rounds = 3, 9
	for _, r := range []int{0, 1, rounds, 2 * rounds} {
		_, l, _ := warmWorld(f, tr, k, r)
		f.Add(state(l))
	}
	f.Add(corruptState(k, nil, []tree.NodeID{1 << 20}))
	f.Add(corruptState(k, []entry{{1 << 20, 1}, {0, 2}}, []tree.NodeID{2, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, _, events := warmWorld(t, tr, k, rounds)
		l := New(k)
		if l.RestoreState(snap.NewDecoder(data), w.View(), events) != nil {
			return
		}
		_, _ = sim.RunContext(context.Background(), w, movesOfK{t, l}, int64(w.Round())+5, events, nil)
	})
}
