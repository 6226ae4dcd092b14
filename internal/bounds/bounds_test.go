package bounds

import (
	"math"
	"strings"
	"testing"
)

func TestTheorem1Monotonicity(t *testing.T) {
	// Bound grows with n and D, shrinks with k.
	if Theorem1(1000, 10, 4, 8) >= Theorem1(2000, 10, 4, 8) {
		t.Error("bound not increasing in n")
	}
	if Theorem1(1000, 10, 4, 8) >= Theorem1(1000, 20, 4, 8) {
		t.Error("bound not increasing in D")
	}
	if Theorem1(1000, 10, 4, 8) <= Theorem1(1000, 10, 16, 8) {
		t.Error("2n/k term not decreasing in k at fixed log")
	}
}

func TestTheorem1DegreeCap(t *testing.T) {
	// For Δ = 2 (a path) the log term caps at log 2 regardless of k.
	path := Theorem1(100, 99, 1024, 2)
	want := 2*100.0/1024 + 99*99*(math.Log(2)+3)
	if math.Abs(path-want) > 1e-9 {
		t.Errorf("got %v, want %v", path, want)
	}
}

func TestOfflineLB(t *testing.T) {
	if got := OfflineLB(101, 10, 2); got != 100 {
		t.Errorf("OfflineLB = %v, want 100", got)
	}
	if got := OfflineLB(101, 80, 2); got != 160 {
		t.Errorf("OfflineLB = %v, want 160", got)
	}
}

func TestWinnerAtInvalidRegion(t *testing.T) {
	if w := WinnerAt(10, 20, 8); w != WinnerNone {
		t.Errorf("n<D returned %v", w)
	}
}

func TestFigure1QualitativeShape(t *testing.T) {
	// The qualitative claims of Figure 1, at k = 32 where all four regions
	// fit inside a renderable (log₂n, log₂D) window (the CTE/Yo* boundaries
	// sit at n = e^k and D = e^{log²k}, which grow very fast with k).
	k := 32
	// (a) Small D, large n: BFDN wins (overhead D²logk negligible, 2n/k
	//     beats n/log k for k ≫ log k).
	if w := WinnerAt(1e12, 4, k); w != WinnerBFDN {
		t.Errorf("large n, tiny D: winner %v, want BFDN", w)
	}
	// (b) Very deep trees beyond D = e^{log²k} ≈ 2^17.4: CTE wins.
	if w := WinnerAt(math.Pow(2, 30), math.Pow(2, 20), k); w != WinnerCTE {
		t.Errorf("deep region: winner %v, want CTE", w)
	}
	// (c) The BFDN_ℓ band: deep trees with n large enough that
	//     D ≤ n^{ℓ/(ℓ+1)}/(k log²k) while D² > n/k.
	found := false
	for ln := 44.0; ln <= 58; ln += 2 {
		for ld := 16.0; ld <= 26; ld++ {
			if WinnerAt(math.Pow(2, ln), math.Pow(2, ld), k) == WinnerBFDNL {
				found = true
			}
		}
	}
	if !found {
		t.Error("BFDN_ℓ wins nowhere in the intermediate band")
	}
	// (d) Yo* niche: moderate n (≤ e^k = 2^46), D below e^{log²k}, above the
	//     BFDN crossover.
	foundY := false
	for ln := 10.0; ln <= 44; ln += 2 {
		for ld := 2.0; ld < ln; ld += 2 {
			if WinnerAt(math.Pow(2, ln), math.Pow(2, ld), k) == WinnerYoStar {
				foundY = true
			}
		}
	}
	if !foundY {
		t.Error("Yo* wins nowhere")
	}
	// (e) Beyond n = e^k, Yo* never wins (CTE or BFDN take over).
	for ld := 2.0; ld <= 40; ld += 2 {
		if w := WinnerAt(math.Pow(2, 50), math.Pow(2, ld), k); w == WinnerYoStar {
			t.Errorf("Yo* wins at n=2^50 > e^32, D=2^%v", ld)
		}
	}
}

func TestRegionMapRendersAllSymbols(t *testing.T) {
	m := NewRegionMap(32, 4, 60, 1, 30, 64, 24)
	out := m.Render()
	for _, sym := range []string{"B", "C", "L", "."} {
		if !strings.Contains(out, sym) {
			t.Errorf("map missing symbol %q:\n%s", sym, out)
		}
	}
	if !strings.Contains(out, "legend") {
		t.Error("map missing legend")
	}
}

func TestRegionMapShares(t *testing.T) {
	m := NewRegionMap(32, 4, 60, 1, 30, 64, 24)
	total := 0.0
	for _, w := range []Winner{WinnerCTE, WinnerYoStar, WinnerBFDN, WinnerBFDNL} {
		s := m.Share(w)
		if s < 0 || s > 1 {
			t.Errorf("share of %v = %v out of range", w, s)
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	// BFDN must hold a substantial share — it is the only algorithm that
	// beats CTE in an unbounded range (Appendix A).
	if m.Share(WinnerBFDN) < 0.15 {
		t.Errorf("BFDN share %v suspiciously small", m.Share(WinnerBFDN))
	}
}

func TestWinnerStrings(t *testing.T) {
	for _, w := range []Winner{WinnerNone, WinnerCTE, WinnerYoStar, WinnerBFDN, WinnerBFDNL} {
		if w.String() == "" {
			t.Errorf("empty string for %d", w)
		}
	}
	if Winner(99).String() != "-" {
		t.Error("unknown winner should render as -")
	}
}

func TestAllBoundsPositive(t *testing.T) {
	cases := []struct{ n, d, k, deg int }{
		{1, 0, 1, 0}, {2, 1, 1, 1}, {100, 10, 8, 5}, {1e6, 1000, 512, 3},
	}
	for _, tc := range cases {
		if v := Theorem1(tc.n, tc.d, tc.k, tc.deg); v < 0 {
			t.Errorf("Theorem1%v < 0", tc)
		}
		if v := Proposition7(tc.n, tc.d, tc.k); v < 0 {
			t.Errorf("Prop7%v < 0", tc)
		}
		if v := Theorem10(tc.n, tc.d, tc.k, tc.deg, 2); v < 0 {
			t.Errorf("Theorem10%v < 0", tc)
		}
		if v := Theorem3(tc.k, tc.k+1); v < 0 {
			t.Errorf("Theorem3%v < 0", tc)
		}
	}
}
