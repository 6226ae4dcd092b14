package bfdn

import (
	"context"
	"errors"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/levelwise"
	"bfdn/internal/potential"
	"bfdn/internal/treemining"
)

// TestReportBoundAllAlgorithms pins Report.Bound to the closed-form
// guarantee for every Algorithm constant, in all three facade paths
// (Explore, ExploreTraced, SweepContext). In particular CTE must report the
// Appendix A form n/log k + D, not 0.
func TestReportBoundAllAlgorithms(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 800, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k, ell = 9, 3
	n, d, deg := tr.N(), tr.Depth(), tr.MaxDegree()
	cases := []struct {
		alg  Algorithm
		opts []Option
		want float64
	}{
		{BFDN, nil, bounds.Theorem1(n, d, k, deg)},
		{BFDNRecursive, []Option{WithEll(ell)}, bounds.Theorem10(n, d, k, deg, ell)},
		{CTE, nil, bounds.GuaranteeCTE(float64(n), float64(d), k)},
		{DFS, nil, float64(2 * (n - 1))},
		{Levelwise, nil, levelwise.Bound(n, d, k)},
		{TreeMining, nil, treemining.Bound(n, d, k)},
		{Potential, nil, potential.Bound(n, d, k)},
	}
	if len(cases) != len(Algorithms()) {
		t.Fatalf("test covers %d algorithms, facade exposes %d", len(cases), len(Algorithms()))
	}
	for _, tc := range cases {
		t.Run(tc.alg.String(), func(t *testing.T) {
			if tc.want <= 0 {
				t.Fatalf("closed-form guarantee %.2f is not positive", tc.want)
			}
			opts := append([]Option{WithAlgorithm(tc.alg)}, tc.opts...)
			rep, err := Explore(tr, k, opts...)
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if rep.Bound != tc.want {
				t.Errorf("Explore Bound = %v, want %v", rep.Bound, tc.want)
			}
			trep, _, err := ExploreTraced(tr, k, 50, opts...)
			if err != nil {
				t.Fatalf("ExploreTraced: %v", err)
			}
			if trep.Bound != tc.want {
				t.Errorf("ExploreTraced Bound = %v, want %v", trep.Bound, tc.want)
			}
			sweepEll := 0
			if tc.alg == BFDNRecursive {
				sweepEll = ell
			}
			res, _, err := SweepContext(context.Background(), []SweepPoint{{Tree: tr, K: k, Algorithm: tc.alg, Ell: sweepEll}}, 1, 0)
			if err != nil {
				t.Fatalf("SweepContext: %v", err)
			}
			if res[0].Err != nil {
				t.Fatalf("SweepContext point: %v", res[0].Err)
			}
			if res[0].Report.Bound != tc.want {
				t.Errorf("SweepContext Bound = %v, want %v", res[0].Report.Bound, tc.want)
			}
		})
	}
}

func TestExploreContextCancel(t *testing.T) {
	tr, err := GenerateTree(FamilyPath, 50_000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExploreContext(ctx, tr, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExploreContext error = %v, want context.Canceled", err)
	}
	// The break-down path goes through the adversary engine; it must honor
	// the context too.
	if _, err := ExploreContext(ctx, tr, 2, WithBreakdowns(BernoulliSchedule(0.5, 2, 1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("breakdown ExploreContext error = %v, want context.Canceled", err)
	}
}

func TestSweepContextCancelKeepsPartials(t *testing.T) {
	tr, err := GenerateTree(FamilyPath, 8_000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]SweepPoint, 16)
	for i := range pts {
		pts[i] = SweepPoint{Tree: tr, K: 1, Algorithm: DFS}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := SweepContext(ctx, pts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("point %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}
