package tree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// postOrderRecursive is the reference post-order: a recursive DFS over the
// children in port order, each node listed after its subtree. It returns
// the node of every rank.
func postOrderRecursive(t *Tree) []NodeID {
	var order []NodeID
	var visit func(v NodeID)
	visit = func(v NodeID) {
		for _, c := range t.Children(v) {
			visit(c)
		}
		order = append(order, v)
	}
	visit(Root)
	return order
}

// isAncestorWalk is the reference ancestor test: climb from v to a's depth.
func isAncestorWalk(t *Tree, a, v NodeID) bool {
	for t.DepthOf(v) > t.DepthOf(a) {
		v = t.Parent(v)
	}
	return v == a
}

// nextHopWalk is the reference next hop: the parent walk the Potential
// engines used, down into the child of from on the way to a deeper to,
// up otherwise.
func nextHopWalk(t *Tree, from, to NodeID) NodeID {
	df, dt := t.DepthOf(from), t.DepthOf(to)
	if dt <= df {
		return t.Parent(from)
	}
	c := to
	for ; dt > df+1; dt-- {
		c = t.Parent(c)
	}
	if t.Parent(c) == from {
		return c
	}
	return t.Parent(from)
}

// checkRanks compares Rank, AtRank and the interval of every subtree with
// the recursive DFS, and IsAncestor and NextHop with the parent walks on
// every pair of a small tree or on pairs random picks draw from a large one.
func checkRanks(t *testing.T, tr *Tree, rng *rand.Rand, pairs int) {
	t.Helper()
	order := postOrderRecursive(tr)
	for r, v := range order {
		if got := tr.Rank(v); got != r {
			t.Fatalf("%s: Rank(%d) = %d, want %d", tr, v, got, r)
		}
		if got := tr.AtRank(r); got != v {
			t.Fatalf("%s: AtRank(%d) = %d, want %d", tr, r, got, v)
		}
		// T(v) is the subtreeSize(v) ranks that end at v's own.
		s := tr.ranked()[v]
		if int(s.last-s.first)+1 != subtreeSize(tr, v) {
			t.Fatalf("%s: interval of %d is [%d, %d], subtree has %d nodes", tr, v, s.first, s.last, subtreeSize(tr, v))
		}
	}
	n := tr.N()
	check := func(a, v NodeID) {
		if got, want := tr.IsAncestor(a, v), isAncestorWalk(tr, a, v); got != want {
			t.Fatalf("%s: IsAncestor(%d, %d) = %v, want %v", tr, a, v, got, want)
		}
		if a == v {
			return
		}
		if got, want := tr.NextHop(a, v), nextHopWalk(tr, a, v); got != want {
			t.Fatalf("%s: NextHop(%d, %d) = %d, want %d", tr, a, v, got, want)
		}
	}
	if n*n <= pairs {
		for a := 0; a < n; a++ {
			for v := 0; v < n; v++ {
				check(NodeID(a), NodeID(v))
			}
		}
		return
	}
	for i := 0; i < pairs; i++ {
		v := NodeID(rng.Intn(n))
		a := v
		// Half the pairs are ancestor pairs, which a uniform draw rarely
		// hits on a large tree.
		for rng.Intn(2) == 0 && a != Root {
			a = tr.Parent(a)
		}
		if rng.Intn(2) == 0 {
			a = NodeID(rng.Intn(n))
		}
		check(a, v)
		check(v, a)
	}
}

// TestPostOrderMatchesRecursiveDFS pins the post-order intervals, the O(1)
// IsAncestor and the O(log Δ) NextHop to their references on path, star,
// comb, caterpillar, k-ary, spider and random trees.
func TestPostOrderMatchesRecursiveDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trees := []*Tree{
		NewBuilder().Build(), Path(50), Star(40), Comb(9, 5), Caterpillar(7, 4),
		KAry(3, 4), Spider(5, 6), UnevenPaths(6, 30), RandomBinary(300, rng),
	}
	for i := 0; i < 20; i++ {
		trees = append(trees, Random(1+rng.Intn(400), 1+rng.Intn(30), rng))
	}
	trees = append(trees, Random(20_000, 40, rng))
	for _, tr := range trees {
		checkRanks(t, tr, rng, 4000)
	}
}

// TestRankedQueriesAllocateNothing: the intervals are computed once per
// tree, so every query after the first, as every point of a sweep sharing
// the tree makes, allocates nothing.
func TestRankedQueriesAllocateNothing(t *testing.T) {
	tr := Random(500, 12, rand.New(rand.NewSource(4)))
	leaf := tr.AtRank(0)
	got := testing.AllocsPerRun(20, func() {
		_ = tr.NextHop(Root, leaf)
		_ = tr.IsAncestor(Root, leaf)
		_ = tr.AtRank(tr.Rank(leaf))
	})
	if got != 0 {
		t.Errorf("ranked queries allocated %.0f times, want 0", got)
	}
}

// TestRanksConcurrentFirstUse: goroutines sharing a tree, as sweep workers
// do, may all ask for ranks first at once; each must see the same complete
// intervals.
func TestRanksConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := Random(3000, 25, rng)
	want := postOrderRecursive(ref)
	tr, err := FromParents(ref.Parents())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := g; r < len(want); r += 8 {
				if got := tr.AtRank(r); got != want[r] || tr.Rank(got) != r {
					errs <- fmt.Errorf("goroutine %d: rank %d holds %d, want %d", g, r, got, want[r])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
