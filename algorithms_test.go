package bfdn

import (
	"context"
	"strings"
	"testing"
)

// TestParseAlgorithmRoundTrip pins ParseAlgorithm as the exact inverse of
// Algorithm.String over Algorithms(), so a new enum entry can never ship
// without its name being parseable everywhere (CLIs, bfdnd, dsweep).
func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", a.String(), err)
			continue
		}
		if got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", a.String(), got, a)
		}
	}
	if a, err := ParseAlgorithm(""); err != nil || a != BFDN {
		t.Errorf("ParseAlgorithm(\"\") = %v, %v; want BFDN", a, err)
	}
}

// TestParseAlgorithmErrorListsNames requires the unknown-name error to
// enumerate every valid name, so CLI usage errors and bfdnd HTTP 400s are
// actionable without consulting the docs.
func TestParseAlgorithmErrorListsNames(t *testing.T) {
	_, err := ParseAlgorithm("nope")
	if err == nil {
		t.Fatal("ParseAlgorithm(\"nope\") succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown algorithm "nope"`) {
		t.Errorf("error %q does not name the rejected input", msg)
	}
	for _, name := range AlgorithmNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid name %q", msg, name)
		}
	}
}

// TestAlgorithmNamesMatchesAlgorithms pins AlgorithmNames to Algorithms()
// order — user-facing lists are generated from it.
func TestAlgorithmNamesMatchesAlgorithms(t *testing.T) {
	names := AlgorithmNames()
	algs := Algorithms()
	if len(names) != len(algs) {
		t.Fatalf("%d names for %d algorithms", len(names), len(algs))
	}
	for i, a := range algs {
		if names[i] != a.String() {
			t.Errorf("AlgorithmNames()[%d] = %q, want %q", i, names[i], a.String())
		}
	}
}

// invariantTrees are the shapes the cross-algorithm suite runs on: one
// balanced, one deep CTE-hard, one random.
func invariantTrees(t *testing.T) []*Tree {
	t.Helper()
	out := make([]*Tree, 0, 3)
	for _, g := range []struct {
		f    Family
		n, d int
	}{
		{FamilyBinary, 255, 7},
		{FamilyUneven, 8, 40},
		{FamilyRandom, 600, 14},
	} {
		tr, err := GenerateTree(g.f, g.n, g.d, 7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// boundIsEnvelope reports whether the algorithm's reported Bound is a strict
// upper envelope on measured rounds. It holds for every algorithm except
// CTE, whose Bound is the asymptotic Appendix A closed form n/log k + D
// (lower-order terms dropped), which measured runs legitimately exceed.
func boundIsEnvelope(a Algorithm) bool { return a != CTE }

// TestAlgorithmInvariants runs every selectable algorithm through
// ExploreTraced on each invariant tree and checks the model-level contract:
// full exploration with all robots home, a per-round monotone explored set
// consistent with Report.Rounds, a positive reported guarantee, and (where
// the guarantee is an envelope) measured rounds within it. Parameterized
// over Algorithms() so every future algorithm is covered automatically.
func TestAlgorithmInvariants(t *testing.T) {
	const k = 8
	for _, a := range Algorithms() {
		t.Run(a.String(), func(t *testing.T) {
			for _, tr := range invariantTrees(t) {
				rep, trace, err := ExploreTraced(tr, k, 1, WithAlgorithm(a))
				if err != nil {
					t.Fatalf("%s: %v", tr, err)
				}
				if !rep.FullyExplored || !rep.AllAtRoot {
					t.Fatalf("%s: explored=%v home=%v", tr, rep.FullyExplored, rep.AllAtRoot)
				}
				if rep.Bound <= 0 {
					t.Errorf("%s: Bound = %v, want > 0", tr, rep.Bound)
				}
				if boundIsEnvelope(a) && float64(rep.Rounds) > rep.Bound {
					t.Errorf("%s: rounds %d exceed guarantee %.1f", tr, rep.Rounds, rep.Bound)
				}
				if rep.Rounds > 0 && float64(rep.Rounds) < rep.OfflineLowerBound/2 {
					t.Errorf("%s: rounds %d below half the offline bound %.1f, impossible",
						tr, rep.Rounds, rep.OfflineLowerBound)
				}
				// With every=1 the recorder snapshots before each round,
				// including the final all-stay round: Rounds+1 frames at
				// rounds 0..Rounds, explored counts monotone up to n.
				if got, want := trace.Frames(), rep.Rounds+1; got != want {
					t.Fatalf("%s: %d frames, want %d", tr, got, want)
				}
				for i := 0; i < trace.Frames(); i++ {
					if trace.FrameRound(i) != i {
						t.Fatalf("%s: frame %d has round %d", tr, i, trace.FrameRound(i))
					}
					if i > 0 && trace.FrameExplored(i) < trace.FrameExplored(i-1) {
						t.Errorf("%s: explored count shrank at round %d", tr, i)
					}
				}
				if last := trace.FrameExplored(trace.Frames() - 1); last != tr.N() {
					t.Errorf("%s: final frame explored %d of %d", tr, last, tr.N())
				}
			}
		})
	}
}

// TestAlgorithmSweepWorkerInvariance requires byte-identical sweep results
// at any worker count for every algorithm — the determinism contract that
// dsweep's distributed merge relies on, including the reset-by-name reuse
// path exercised by consecutive same-algorithm points on one worker.
func TestAlgorithmSweepWorkerInvariance(t *testing.T) {
	trees := invariantTrees(t)
	var pts []SweepPoint
	for _, a := range Algorithms() {
		for _, tr := range trees {
			// Two consecutive points per (algorithm, tree) so single-worker
			// runs exercise the algorithm-reuse hook against fresh state.
			pts = append(pts, SweepPoint{Tree: tr, K: 6, Algorithm: a},
				SweepPoint{Tree: tr, K: 6, Algorithm: a})
		}
	}
	base, _, err := SweepContext(context.Background(), pts, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, _, err := SweepContext(context.Background(), pts, workers, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if base[i].Err != nil || got[i].Err != nil {
				t.Fatalf("point %d errored: %v / %v", i, base[i].Err, got[i].Err)
			}
			if base[i].Report != got[i].Report {
				t.Errorf("point %d (%s): workers=%d report %+v != workers=1 report %+v",
					i, pts[i].Algorithm, workers, got[i].Report, base[i].Report)
			}
		}
	}
}
