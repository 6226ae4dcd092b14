package recursive

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// warmBFDNL returns a world that BFDN_ℓ has run for the given number of
// rounds (or to the end, whichever comes first), with the instance that
// ran it and the pending events.
func warmBFDNL(tb testing.TB, tr *tree.Tree, k, ell, rounds int) (*sim.World, *BFDNL, []sim.ExploreEvent) {
	tb.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := NewBFDNL(k, ell)
	if err != nil {
		tb.Fatal(err)
	}
	var events []sim.ExploreEvent
	if rounds > 0 {
		if _, err := sim.RunContext(context.Background(), w, a, 0, nil, func(_ []sim.Move, ev []sim.ExploreEvent, moved bool) (bool, error) {
			events = ev
			return !moved || w.Round() == rounds, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return w, a, events
}

// checkpoints runs BFDN_ℓ to the end and returns its Result and its
// checkpoint before every round that moved a robot.
func checkpoints(tb testing.TB, tr *tree.Tree, k, ell int) (sim.Result, [][]byte) {
	tb.Helper()
	w, a, _ := warmBFDNL(tb, tr, k, ell, 0)
	first, err := sim.EncodeCheckpoint(w, a, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ckpts := [][]byte{first}
	res, err := sim.RunContext(context.Background(), w, a, 0, nil, sim.SaveEvery(w, a, 1, func(state []byte) error {
		ckpts = append(ckpts, state)
		return nil
	}))
	if err != nil {
		tb.Fatal(err)
	}
	return res, ckpts
}

func bfdnlState(a *BFDNL) []byte {
	var e snap.Encoder
	a.SnapshotState(&e, nil, nil)
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

// TestEveryCheckpointRestores restores BFDN_ℓ from its checkpoint at every
// round of runs with ℓ = 1..3: every one must be accepted by the checks
// RestoreState applies, re-encode to the same bytes, and finish with the
// uninterrupted run's Result.
func TestEveryCheckpointRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tr := range []*tree.Tree{tree.Random(150, 10, rng), tree.Comb(8, 5), tree.Spider(4, 9)} {
		for _, c := range []struct{ k, ell int }{{3, 1}, {4, 2}, {9, 2}, {8, 3}} {
			want, ckpts := checkpoints(t, tr, c.k, c.ell)
			for r, ckpt := range ckpts {
				w2, err := sim.NewWorld(tr, c.k)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := NewBFDNL(c.k, c.ell)
				if err != nil {
					t.Fatal(err)
				}
				events2, err := sim.RestoreCheckpoint(ckpt, w2, a2)
				if err != nil {
					t.Fatalf("%s k=%d ℓ=%d: restore at round %d: %v", tr, c.k, c.ell, r, err)
				}
				if again, err := sim.EncodeCheckpoint(w2, a2, events2); err != nil || !bytes.Equal(again, ckpt) {
					t.Fatalf("%s k=%d ℓ=%d: checkpoint at round %d does not re-encode to its bytes (%v)", tr, c.k, c.ell, r, err)
				}
				got, err := sim.RunContext(context.Background(), w2, a2, 0, events2, nil)
				if err != nil {
					t.Fatalf("%s k=%d ℓ=%d: resumed at round %d: %v", tr, c.k, c.ell, r, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d ℓ=%d: resumed at round %d, result differs", tr, c.k, c.ell, r)
				}
			}
		}
	}
}

// corruptions are edits of a warm BFDN_ℓ(4, 2) instance tree, restored in
// the world of v, whose checkpoints name robots, nodes or parameters the
// run cannot hold.
func corruptions() map[string]func(v *sim.View, a *BFDNL) bool {
	leaf := func(a *BFDNL) *bfdn1 {
		if a.topDD == nil || len(a.topDD.children) == 0 {
			return nil
		}
		l, _ := a.topDD.children[0].(*bfdn1)
		return l
	}
	plan := func(a *BFDNL) *travelPlan {
		if a.topDD == nil || len(a.topDD.plans) == 0 {
			return nil
		}
		return &a.topDD.plans[0]
	}
	return map[string]func(v *sim.View, a *BFDNL) bool{
		"negative phase":        func(_ *sim.View, a *BFDNL) bool { a.phaseJ = -1; return true },
		"phase past int":        func(_ *sim.View, a *BFDNL) bool { a.phaseJ = 70; return true },
		"divide level too high": func(_ *sim.View, a *BFDNL) bool { a.topDD.level = 1 << 40; return true },
		"divide k* changed":     func(_ *sim.View, a *BFDNL) bool { a.topDD.kstar = 7; return true },
		"divide step changed":   func(_ *sim.View, a *BFDNL) bool { a.topDD.s = 1; return true },
		"divide negative robot": func(_ *sim.View, a *BFDNL) bool { a.topDD.robots[1] = -5; return true },
		"divide robot past k":   func(_ *sim.View, a *BFDNL) bool { a.topDD.robots[1] = 9; return true },
		"divide robot twice":    func(_ *sim.View, a *BFDNL) bool { a.topDD.robots[1] = a.topDD.robots[0]; return true },
		"divide root past tree": func(_ *sim.View, a *BFDNL) bool { a.topDD.root = 1 << 20; return true },
		"leaf negative robot": func(_ *sim.View, a *BFDNL) bool {
			l := leaf(a)
			if l == nil || len(l.b.Robots()) < 2 {
				return false
			}
			l.b.Robots()[1] = -5
			return true
		},
		"leaf robot past k": func(_ *sim.View, a *BFDNL) bool {
			l := leaf(a)
			if l == nil {
				return false
			}
			l.b.Robots()[0] = 1 << 30
			return true
		},
		"leaf robot in a sibling's subtree": func(v *sim.View, a *BFDNL) bool {
			// A seeded leaf lists a robot of a sibling that stands outside
			// its subtree.
			if a.homing || a.topDD == nil {
				return false
			}
			for _, c := range a.topDD.children {
				l, ok := c.(*bfdn1)
				if !ok || !l.b.Seeded() {
					continue
				}
				root := l.b.Root()
				for _, sib := range a.topDD.children {
					for _, r := range sib.(*bfdn1).b.Robots() {
						if ancestorAtDepth(v, v.Pos(r), v.DepthOf(root)) != root {
							l.b.Robots()[0] = r
							return true
						}
					}
				}
			}
			return false
		},
		"leaf root past tree": func(_ *sim.View, a *BFDNL) bool {
			if l := leaf(a); l != nil {
				*l = bfdn1{b: newBFDN1(l.b.Robots(), 1<<20, a.s()).b}
				return true
			}
			return false
		},
		"plan robot past k": func(_ *sim.View, a *BFDNL) bool {
			p := plan(a)
			if p == nil {
				return false
			}
			p.robot = 9
			return true
		},
		"plan node past tree": func(_ *sim.View, a *BFDNL) bool {
			p := plan(a)
			if p == nil {
				return false
			}
			p.path = append(p.path, 1<<20)
			return true
		},
		"plan node negative": func(_ *sim.View, a *BFDNL) bool {
			p := plan(a)
			if p == nil {
				return false
			}
			p.path = append(p.path, -3)
			return true
		},
	}
}

// planLengthState encodes a BFDN_ℓ(4, 2) checkpoint whose one travel plan
// promises a path of n nodes and carries none.
func planLengthState(n int) []byte {
	var e snap.Encoder
	e.Int(4)
	e.Int(2)
	e.Int(1)
	e.Bool(true)
	e.Bool(false)
	e.Uint64(uint64(tagDivide))
	e.Int(2)
	e.Int(2)
	e.Int(2)
	e.Ints([]int{0, 1, 2, 3})
	e.Int32(int32(tree.Root))
	e.Int(1)
	e.Int(int(phaseTravel))
	e.Bool(false)
	e.Bool(true)
	e.Int(0)
	e.Int(1)
	e.Int(0)
	e.Int(n)
	return e.Bytes()
}

// TestCorruptRestoreIsAnError: a checkpoint naming robots outside [0, k)
// or twice, nodes the world has not explored, parameters the phase could
// not have built, or a plan longer than its bytes is refused by
// RestoreState, where robots {0, −5} used to panic in core's robot set, a
// negative phase in a shift, and a huge level or path length to loop or
// allocate before any check.
func TestCorruptRestoreIsAnError(t *testing.T) {
	tr := tree.Random(300, 10, rand.New(rand.NewSource(5)))
	const k, ell = 4, 2
	_, ckpts := checkpoints(t, tr, k, ell)
	restore := func(ckpt []byte) (*sim.World, *BFDNL, []sim.ExploreEvent) {
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewBFDNL(k, ell)
		if err != nil {
			t.Fatal(err)
		}
		events, err := sim.RestoreCheckpoint(ckpt, w, a)
		if err != nil {
			t.Fatal(err)
		}
		return w, a, events
	}
	for name, corrupt := range corruptions() {
		// The first round whose state holds what the corruption edits.
		var w *sim.World
		var warm *BFDNL
		var events []sim.ExploreEvent
		found := false
		for r := 1; r < len(ckpts) && !found; r++ {
			w, warm, events = restore(ckpts[r])
			found = corrupt(w.View(), warm)
		}
		if !found {
			t.Fatalf("%s: no round's state holds what the corruption edits", name)
		}
		a, err := NewBFDNL(k, ell)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RestoreState(snap.NewDecoder(bfdnlState(warm)), w.View(), events); err == nil {
			t.Errorf("%s: restored without an error", name)
		}
	}
	w, _, events := warmBFDNL(t, tr, k, ell, 1)
	a, err := NewBFDNL(k, ell)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreState(snap.NewDecoder(planLengthState(20_000_000)), w.View(), events); err == nil {
		t.Error("a plan length past the buffer restored without an error")
	}
}

// FuzzRestore feeds arbitrary bytes to RestoreState for ℓ = 1..3 against a
// small world a few rounds into a run and the explores of its last round,
// and resumes an accepted state for up to five rounds: each must be an
// error or a move set for every robot, never a panic or a hang. It is
// seeded with real checkpoints and the corrupt cases above.
func FuzzRestore(f *testing.F) {
	tr := tree.Random(60, 6, rand.New(rand.NewSource(3)))
	const k, rounds = 4, 9
	for ell := 1; ell <= 3; ell++ {
		for _, r := range []int{0, 1, rounds, 2 * rounds, 4 * rounds} {
			_, a, _ := warmBFDNL(f, tr, k, ell, r)
			f.Add(bfdnlState(a), uint8(ell))
		}
	}
	for _, corrupt := range corruptions() {
		for _, r := range []int{1, rounds} {
			w, a, _ := warmBFDNL(f, tr, k, 2, r)
			if corrupt(w.View(), a) {
				f.Add(bfdnlState(a), uint8(2))
			}
		}
	}
	f.Add(planLengthState(20_000_000), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ell uint8) {
		w, _, events := warmBFDNL(t, tr, k, 2, rounds)
		a, err := NewBFDNL(k, 1+int(ell%3))
		if err != nil {
			t.Fatal(err)
		}
		if a.RestoreState(snap.NewDecoder(data), w.View(), events) != nil {
			return
		}
		_, _ = sim.RunContext(context.Background(), w, movesOfK{t, a}, int64(w.Round())+5, events, nil)
	})
}
