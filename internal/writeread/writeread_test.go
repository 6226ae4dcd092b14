package writeread

import (
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/tree"
)

func runWR(t *testing.T, tr *tree.Tree, k int) (Result, *Engine) {
	t.Helper()
	e, err := NewEngine(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatalf("%s k=%d: %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s k=%d: explored %d/%d nodes", tr, k, e.exploredCount, tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("%s k=%d: robots not home", tr, k)
	}
	return res, e
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	return []*tree.Tree{
		tree.Path(1), tree.Path(2), tree.Path(35), tree.Star(25),
		tree.KAry(2, 5), tree.KAry(3, 3), tree.Spider(6, 7),
		tree.Comb(8, 4), tree.Broom(10, 6),
		tree.Random(250, 11, rng), tree.RandomBinary(180, rng),
		tree.UnevenPaths(8, 20),
	}
}

func TestWriteReadCorrectness(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 4, 16} {
			runWR(t, tr, k)
		}
	}
}

func TestWriteReadProposition6Bound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 8, 32} {
			res, _ := runWR(t, tr, k)
			bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
			if float64(res.Rounds) > bound {
				t.Errorf("%s k=%d: %d rounds exceed Prop 6 bound %.1f",
					tr, k, res.Rounds, bound)
			}
		}
	}
}

func TestWriteReadRandomSweepBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 25; i++ {
		n := 30 + rng.Intn(400)
		d := 1 + rng.Intn(25)
		k := 1 + rng.Intn(20)
		tr := tree.Random(n, d, rng)
		res, _ := runWR(t, tr, k)
		bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
		if float64(res.Rounds) > bound {
			t.Errorf("random n=%d D=%d k=%d: %d rounds exceed bound %.1f",
				n, tr.Depth(), k, res.Rounds, bound)
		}
	}
}

func TestWriteReadMemoryBudget(t *testing.T) {
	// §4.1 grants each robot Δ + D·log₂Δ bits; the implementation's stack +
	// bitmap must fit (counters add O(log D) which the model also grants).
	for _, tr := range testTrees(t) {
		if tr.N() < 3 {
			continue
		}
		for _, k := range []int{2, 8} {
			res, e := runWR(t, tr, k)
			if res.MaxRobotMemoryBits > e.MemoryModelBits() {
				t.Errorf("%s k=%d: peak robot memory %d bits exceeds model budget %d",
					tr, k, res.MaxRobotMemoryBits, e.MemoryModelBits())
			}
		}
	}
}

func TestWriteReadSingleRobotIsDFSLike(t *testing.T) {
	// One robot, anchored at the root, explores via PARTITION: a full DFS in
	// 2(n−1) moves plus re-anchoring overhead bounded by Prop 6.
	tr := tree.KAry(2, 5)
	res, _ := runWR(t, tr, 1)
	if res.Moves < int64(2*(tr.N()-1)) {
		t.Errorf("moves = %d < 2(n−1) = %d", res.Moves, 2*(tr.N()-1))
	}
}

func TestWriteReadPlannerAnchorCountStaysBounded(t *testing.T) {
	// Algorithm 2's comment: A contains at most k elements after an advance.
	rng := rand.New(rand.NewSource(3))
	tr := tree.Random(400, 10, rng)
	k := 6
	e, err := NewEngine(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 1_000_000; r++ {
		moved, err := e.step()
		if err != nil {
			t.Fatal(err)
		}
		if len(e.planner.anchors) > k && e.planner.d > 0 {
			t.Fatalf("round %d: %d anchors at depth %d, want ≤ k=%d",
				r, len(e.planner.anchors), e.planner.d, k)
		}
		if !moved {
			break
		}
	}
	if e.exploredCount != tr.N() {
		t.Fatal("incomplete")
	}
}

func TestWriteReadWorkingDepthMonotone(t *testing.T) {
	tr := tree.Random(300, 14, rand.New(rand.NewSource(8)))
	e, err := NewEngine(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for r := 0; r < 1_000_000; r++ {
		moved, err := e.step()
		if err != nil {
			t.Fatal(err)
		}
		if d := e.planner.d; d < prev {
			t.Fatalf("working depth decreased %d → %d", prev, d)
		} else {
			prev = d
		}
		if !moved {
			break
		}
	}
	if !e.planner.done {
		t.Error("planner not done at termination")
	}
}

func TestWriteReadEngineErrors(t *testing.T) {
	if _, err := NewEngine(tree.Path(3), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestWriteReadDeterministic(t *testing.T) {
	tr := tree.Random(300, 9, rand.New(rand.NewSource(19)))
	a, _ := runWR(t, tr, 7)
	b, _ := runWR(t, tr, 7)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d rounds, %d/%d moves", a.Rounds, b.Rounds, a.Moves, b.Moves)
	}
}

func TestPartitionProperties(t *testing.T) {
	// PARTITION at a node must hand out downward ports in decreasing order,
	// each at most once, then port 0 forever.
	tr := tree.Star(6) // root with 5 children: ports 0..4
	e, err := NewEngine(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 5; i++ {
		got = append(got, e.partition(tree.Root))
	}
	for i, want := range []int{4, 3, 2, 1, 0} {
		if got[i] != want {
			t.Errorf("root dispatch %d = %d, want %d", i, got[i], want)
		}
	}
	if p := e.partition(tree.Root); p != -1 {
		t.Errorf("exhausted root PARTITION = %d, want -1 (⊥)", p)
	}

	// Non-root node: path root→a→b; a has degree 2 (port 0 up, port 1 down).
	tr2 := tree.Path(3)
	e2, err := NewEngine(tr2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := e2.partition(1); p != 1 {
		t.Errorf("first dispatch at non-root = %d, want 1", p)
	}
	if p := e2.partition(1); p != 0 {
		t.Errorf("second dispatch at non-root = %d, want 0 (up)", p)
	}
	if p := e2.partition(1); p != 0 {
		t.Errorf("third dispatch at non-root = %d, want 0 (up stays up)", p)
	}
}
