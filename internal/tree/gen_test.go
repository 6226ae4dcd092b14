package tree

import (
	"math/rand"
	"testing"
)

func TestPathShape(t *testing.T) {
	for _, n := range []int{1, 2, 5, 100} {
		tr := Path(n)
		if tr.N() != n {
			t.Errorf("Path(%d).N = %d", n, tr.N())
		}
		if tr.Depth() != n-1 {
			t.Errorf("Path(%d).Depth = %d, want %d", n, tr.Depth(), n-1)
		}
		if n >= 3 && tr.MaxDegree() != 2 {
			t.Errorf("Path(%d).MaxDegree = %d, want 2", n, tr.MaxDegree())
		}
		if err := validate(tr); err != nil {
			t.Errorf("Path(%d): %v", n, err)
		}
	}
}

func TestStarShape(t *testing.T) {
	tr := Star(50)
	if tr.N() != 50 || tr.Depth() != 1 || tr.MaxDegree() != 49 {
		t.Errorf("Star(50): n=%d D=%d Δ=%d", tr.N(), tr.Depth(), tr.MaxDegree())
	}
}

func TestKAryShape(t *testing.T) {
	cases := []struct {
		branch, depth, wantN int
	}{
		{2, 0, 1},
		{2, 3, 15},
		{3, 2, 13},
		{2, 10, 2047},
	}
	for _, tc := range cases {
		tr := KAry(tc.branch, tc.depth)
		if tr.N() != tc.wantN {
			t.Errorf("KAry(%d,%d).N = %d, want %d", tc.branch, tc.depth, tr.N(), tc.wantN)
		}
		if tr.Depth() != tc.depth {
			t.Errorf("KAry(%d,%d).Depth = %d", tc.branch, tc.depth, tr.Depth())
		}
		if err := validate(tr); err != nil {
			t.Errorf("KAry(%d,%d): %v", tc.branch, tc.depth, err)
		}
	}
}

func TestSpiderShape(t *testing.T) {
	tr := Spider(8, 13)
	if tr.N() != 1+8*13 {
		t.Errorf("Spider n = %d, want %d", tr.N(), 1+8*13)
	}
	if tr.Depth() != 13 {
		t.Errorf("Spider D = %d, want 13", tr.Depth())
	}
	if tr.MaxDegree() != 8 {
		t.Errorf("Spider Δ = %d, want 8", tr.MaxDegree())
	}
}

func TestCombShape(t *testing.T) {
	tr := Comb(10, 4)
	if tr.N() != 11*5 {
		t.Errorf("Comb n = %d, want 55", tr.N())
	}
	if tr.Depth() != 14 {
		t.Errorf("Comb D = %d, want 14", tr.Depth())
	}
	if err := validate(tr); err != nil {
		t.Errorf("Comb: %v", err)
	}
}

func TestCaterpillarShape(t *testing.T) {
	tr := Caterpillar(6, 3)
	// 7 spine nodes, each with 3 leaves.
	if tr.N() != 7+7*3 {
		t.Errorf("Caterpillar n = %d, want 28", tr.N())
	}
	if tr.Depth() != 7 {
		t.Errorf("Caterpillar D = %d, want 7", tr.Depth())
	}
}

func TestBroomShape(t *testing.T) {
	tr := Broom(9, 5)
	if tr.N() != 15 {
		t.Errorf("Broom n = %d, want 15", tr.N())
	}
	if tr.Depth() != 10 {
		t.Errorf("Broom D = %d, want 10", tr.Depth())
	}
	if tr.MaxDegree() != 6 {
		t.Errorf("Broom Δ = %d, want 6", tr.MaxDegree())
	}
}

func TestRandomShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, d int }{
		{1, 0}, {2, 1}, {10, 3}, {100, 5}, {1000, 30}, {50, 100},
	} {
		tr := Random(tc.n, tc.d, rng)
		if tr.N() != tc.n {
			t.Errorf("Random(%d,%d).N = %d", tc.n, tc.d, tr.N())
		}
		wantD := tc.d
		if wantD > tc.n-1 {
			wantD = tc.n - 1
		}
		if tr.Depth() != wantD {
			t.Errorf("Random(%d,%d).Depth = %d, want exactly %d", tc.n, tc.d, tr.Depth(), wantD)
		}
		if err := validate(tr); err != nil {
			t.Errorf("Random(%d,%d): %v", tc.n, tc.d, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(500, 25, rand.New(rand.NewSource(5)))
	b := Random(500, 25, rand.New(rand.NewSource(5)))
	if Encode(a) != Encode(b) {
		t.Error("Random with equal seeds produced different trees")
	}
	c := Random(500, 25, rand.New(rand.NewSource(6)))
	if Encode(a) == Encode(c) {
		t.Error("Random with different seeds produced identical trees")
	}
}

func TestRandomBinaryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := RandomBinary(400, rng)
	if tr.N() != 400 {
		t.Fatalf("n = %d", tr.N())
	}
	for v := NodeID(0); int(v) < tr.N(); v++ {
		if tr.NumChildren(v) > 2 {
			t.Fatalf("node %d has %d children", v, tr.NumChildren(v))
		}
	}
	if err := validate(tr); err != nil {
		t.Errorf("RandomBinary: %v", err)
	}
}

func TestUnevenPathsShape(t *testing.T) {
	tr := UnevenPaths(8, 40)
	if err := validate(tr); err != nil {
		t.Fatalf("UnevenPaths: %v", err)
	}
	if tr.Depth() > 40+3 {
		t.Errorf("depth = %d, want ≤ 43", tr.Depth())
	}
	// The binary split tree has 8 leaves with staggered path lengths; the
	// deepest path must be strictly deeper than the shallowest.
	if tr.Depth() <= 3+40/8 {
		t.Errorf("depth = %d: longest path missing", tr.Depth())
	}
}

func TestGenerateAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range Families() {
		t.Run(string(f), func(t *testing.T) {
			tr, err := Generate(f, 200, 10, rng)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if err := validate(tr); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if tr.N() < 2 {
				t.Errorf("family %s produced a trivial tree (n=%d)", f, tr.N())
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Family("nope"), 10, 3, nil); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate(FamilyRandom, 10, 3, nil); err == nil {
		t.Error("random family without rng accepted")
	}
	if _, err := Generate(FamilyPath, 0, 3, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Generate(FamilyPath, 5, -1, nil); err == nil {
		t.Error("d=-1 accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tr := range []*Tree{Path(1), Path(7), Star(9), KAry(3, 3), Random(123, 11, rng)} {
		enc := Encode(tr)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		if Encode(dec) != enc {
			t.Errorf("round trip mismatch for %s", tr)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, s := range []string{"", "0", "-1 x", "-1 5"} {
		if _, err := Decode(s); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", s)
		}
	}
}
