package recursive

import (
	"math/rand"
	"testing"
	"time"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runBFDNL(t *testing.T, tr *tree.Tree, k, ell int) sim.Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewBFDNL(k, ell)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, alg, 0)
	if err != nil {
		t.Fatalf("BFDN_%d(%s, k=%d): %v", ell, tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("BFDN_%d(%s, k=%d): explored %d/%d", ell, tr, k, w.ExploredCount(), tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("BFDN_%d(%s, k=%d): robots not home", ell, tr, k)
	}
	return res
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	return []*tree.Tree{
		tree.Path(1), tree.Path(2), tree.Path(40), tree.Star(20),
		tree.KAry(2, 6), tree.KAry(3, 4), tree.Spider(5, 12),
		tree.Comb(15, 6), tree.Broom(18, 9),
		tree.Random(300, 14, rng), tree.Random(200, 40, rng),
		tree.RandomBinary(150, rng), tree.UnevenPaths(8, 25),
	}
}

func TestIntRoot(t *testing.T) {
	cases := []struct{ x, ell, want int }{
		{1, 1, 1}, {7, 1, 7}, {4, 2, 2}, {8, 2, 2}, {9, 2, 3},
		{26, 3, 2}, {27, 3, 3}, {28, 3, 3}, {63, 3, 3}, {64, 3, 4},
		{1, 5, 1}, {1024, 2, 32},
	}
	for _, tc := range cases {
		if got := intRoot(tc.x, tc.ell); got != tc.want {
			t.Errorf("intRoot(%d,%d) = %d, want %d", tc.x, tc.ell, got, tc.want)
		}
	}
}

func TestNewBFDNLErrors(t *testing.T) {
	if _, err := NewBFDNL(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBFDNL(4, 0); err == nil {
		t.Error("ℓ=0 accepted")
	}
}

// TestNewBFDNLRefusesOverflowingEll: above ℓ = 62, 2^ℓ overflows an int,
// so the depth budgets would wrap; the constructor must refuse at once
// instead of panicking, exploring nothing, or spending O(ℓ²) first. The
// largest ℓ it accepts still explores the whole tree.
func TestNewBFDNLRefusesOverflowingEll(t *testing.T) {
	start := time.Now()
	for _, ell := range []int{63, 64, 1 << 30} {
		for _, k := range []int{1, 2, 8, 64} {
			if _, err := NewBFDNL(k, ell); err == nil {
				t.Errorf("ℓ=%d k=%d accepted", ell, k)
			}
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusing took %v", d)
	}
	for _, k := range []int{1, 2, 8, 64} {
		tr := tree.Comb(40, 12)
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewBFDNL(k, maxEll)
		if err != nil {
			t.Fatalf("ℓ=%d k=%d: %v", maxEll, k, err)
		}
		if res, err := sim.Run(w, alg, 0); err != nil || !res.FullyExplored || !res.AllAtRoot {
			t.Errorf("ℓ=%d k=%d: %+v, %v; want a full exploration", maxEll, k, res, err)
		}
	}
}

func TestBFDNLCorrectnessEll1(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 4, 9} {
			runBFDNL(t, tr, k, 1)
		}
	}
}

func TestBFDNLCorrectnessEll2(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 4, 9, 16, 10} { // 10: K = 9 effective
			runBFDNL(t, tr, k, 2)
		}
	}
}

func TestBFDNLCorrectnessEll3(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{8, 27, 30} {
			runBFDNL(t, tr, k, 3)
		}
	}
}

func TestBFDNLTheorem10Bound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, ell := range []int{1, 2, 3} {
			for _, k := range []int{4, 16, 64} {
				res := runBFDNL(t, tr, k, ell)
				bound := bounds.Theorem10(tr.N(), tr.Depth(), k, tr.MaxDegree(), ell)
				if float64(res.Rounds) > bound {
					t.Errorf("BFDN_%d(%s, k=%d): %d rounds exceed Theorem 10 bound %.1f",
						ell, tr, k, res.Rounds, bound)
				}
			}
		}
	}
}

func TestBFDNLRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for i := 0; i < 15; i++ {
		n := 30 + rng.Intn(400)
		d := 1 + rng.Intn(60)
		k := 1 + rng.Intn(30)
		ell := 1 + rng.Intn(3)
		tr := tree.Random(n, d, rng)
		res := runBFDNL(t, tr, k, ell)
		bound := bounds.Theorem10(tr.N(), tr.Depth(), k, tr.MaxDegree(), ell)
		if float64(res.Rounds) > bound {
			t.Errorf("BFDN_%d random n=%d D=%d k=%d: %d rounds exceed bound %.1f",
				ell, n, tr.Depth(), k, res.Rounds, bound)
		}
	}
}

func TestBFDNLEffectiveRobots(t *testing.T) {
	b, err := NewBFDNL(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.kEff != 9 {
		t.Errorf("K = %d, want 9", b.kEff)
	}
	b3, err := NewBFDNL(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b3.kEff != 27 {
		t.Errorf("K = %d, want 27", b3.kEff)
	}
}

func TestBFDNLDeepTreeBeatsEll1(t *testing.T) {
	// On a deep sparse tree (n/k^{1/ℓ} < D², §Appendix A comparison), BFDN_2
	// should beat BFDN_1 — the headline motivation of the recursive family.
	tr := tree.Spider(4, 250) // n ≈ 1000, D = 250
	k := 16
	r1 := runBFDNL(t, tr, k, 1)
	r2 := runBFDNL(t, tr, k, 2)
	if r2.Rounds >= r1.Rounds {
		t.Logf("note: BFDN_2 (%d rounds) did not beat BFDN_1 (%d rounds) on %s k=%d",
			r2.Rounds, r1.Rounds, tr, k)
	}
	// At minimum, both stay within their Theorem 10 bounds (checked above);
	// here we require BFDN_2 to be within 2× of BFDN_1, i.e. the recursion
	// does not blow up on deep trees.
	if float64(r2.Rounds) > 2*float64(r1.Rounds)+100 {
		t.Errorf("BFDN_2 (%d rounds) much worse than BFDN_1 (%d) on deep tree", r2.Rounds, r1.Rounds)
	}
}

func TestBFDNLDeterministic(t *testing.T) {
	tr := tree.Random(250, 20, rand.New(rand.NewSource(71)))
	a := runBFDNL(t, tr, 9, 2)
	b := runBFDNL(t, tr, 9, 2)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d rounds", a.Rounds, b.Rounds)
	}
}

func TestBFDNLPhaseGrowth(t *testing.T) {
	// Deep path: the phase index must grow to cover depth (2^{jℓ} ≥ D).
	tr := tree.Path(129) // D = 128
	w, _ := sim.NewWorld(tr, 4)
	alg, err := NewBFDNL(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(w, alg, 0); err != nil {
		t.Fatal(err)
	}
	if !w.FullyExplored() {
		t.Fatal("incomplete")
	}
	// 2^{2j} ≥ 128 needs j ≥ 4.
	if alg.phaseJ < 4 {
		t.Errorf("final phase %d, want ≥ 4", alg.phaseJ)
	}
}

func TestPathBetween(t *testing.T) {
	// Tree: root-0 → 1 → 2; root → 3 → 4.
	b := tree.NewBuilder()
	n1 := b.AddChild(tree.Root)
	n2 := b.AddChild(n1)
	n3 := b.AddChild(tree.Root)
	n4 := b.AddChild(n3)
	tr := b.Build()

	w, _ := sim.NewWorld(tr, 1)
	// Explore everything with a quick DFS so the view has full knowledge.
	v := w.View()
	for {
		pos := v.Pos(0)
		if tk, ok := v.ReserveDangling(pos); ok {
			if _, _, err := w.Apply([]sim.Move{{Kind: sim.Explore, Ticket: tk}}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if pos == tree.Root {
			break
		}
		if _, _, err := w.Apply([]sim.Move{{Kind: sim.Up}}); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		src, dst tree.NodeID
		want     []tree.NodeID // hop sequence in travel order
	}{
		{n2, n4, []tree.NodeID{n1, tree.Root, n3, n4}},
		{tree.Root, n2, []tree.NodeID{n1, n2}},
		{n2, tree.Root, []tree.NodeID{n1, tree.Root}},
		{n2, n2, nil},
		{n1, n2, []tree.NodeID{n2}},
	}
	for _, tc := range cases {
		rev := pathBetween(v, tc.src, tc.dst)
		var got []tree.NodeID
		for i := len(rev) - 1; i >= 0; i-- {
			got = append(got, rev[i])
		}
		if len(got) != len(tc.want) {
			t.Errorf("path %d→%d = %v, want %v", tc.src, tc.dst, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("path %d→%d = %v, want %v", tc.src, tc.dst, got, tc.want)
				break
			}
		}
	}
}
