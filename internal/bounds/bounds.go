// Package bounds collects the closed-form runtime guarantees of every
// algorithm the paper discusses, and computes the Figure 1 region map: the
// partition of the (n, D) plane according to which guarantee is smallest.
package bounds

import "math"

// Theorem1 evaluates the BFDN guarantee 2n/k + D²(min{log k, log Δ}+3).
func Theorem1(n, depth, k, maxDeg int) float64 {
	return 2*float64(n)/float64(k) + float64(depth)*float64(depth)*(logTerm(k, maxDeg)+3)
}

// Lemma2 evaluates the per-depth re-anchor bound k(min{log k, log Δ}+3).
func Lemma2(k, maxDeg int) float64 {
	return float64(k) * (logTerm(k, maxDeg) + 3)
}

// Theorem3 evaluates the urns-game bound k·min{log Δ, log k} + 2k.
func Theorem3(k, delta int) float64 {
	return float64(k)*math.Min(math.Log(float64(delta)), math.Log(float64(k))) + 2*float64(k)
}

// Proposition7 evaluates the break-down budget 2n/k + D²(log k + 3). The
// log Δ alternative of Theorem 1 does not survive the adversarial setting
// (the adversary can park all k robots at one anchor), so only log k
// applies.
func Proposition7(n, depth, k int) float64 {
	lk := math.Log(float64(k))
	if k == 1 {
		lk = 0
	}
	return 2*float64(n)/float64(k) + float64(depth)*float64(depth)*(lk+3)
}

// Proposition9 evaluates the graph bound 2m/k + D²(min{log Δ, log k}+3)
// with m edges and D the origin eccentricity.
func Proposition9(m, depth, k, maxDeg int) float64 {
	return 2*float64(m)/float64(k) + float64(depth)*float64(depth)*(logTerm(k, maxDeg)+3)
}

// Theorem10 evaluates the BFDN_ℓ guarantee
// 4n/k^{1/ℓ} + 2^{ℓ+1}(ℓ+1+min{log Δ, log k/ℓ})·D^{1+1/ℓ}.
func Theorem10(n, depth, k, maxDeg, ell int) float64 {
	kRoot := math.Pow(float64(k), 1/float64(ell))
	lt := math.Min(math.Log(float64(maxDeg)), math.Log(float64(k))/float64(ell))
	if maxDeg == 0 || k == 1 {
		lt = 0
	}
	dTerm := math.Pow(float64(depth), 1+1/float64(ell))
	return 4*float64(n)/kRoot + math.Pow(2, float64(ell+1))*(float64(ell)+1+lt)*dTerm
}

// OfflineLB evaluates the offline lower bound max{2n/k, 2D}.
func OfflineLB(n, depth, k int) float64 {
	return math.Max(2*float64(n-1)/float64(k), 2*float64(depth))
}

func logTerm(k, maxDeg int) float64 {
	lt := math.Min(math.Log(float64(k)), math.Log(float64(maxDeg)))
	if maxDeg == 0 || k == 1 {
		return 0
	}
	return lt
}

// GuaranteeCTE is CTE's runtime in the Appendix A form n/log k + D, with
// constants dropped: the bound a CTE run reports (the facade's
// Report.Bound).
func GuaranteeCTE(n, d float64, k int) float64 {
	lk := math.Log(float64(k))
	if k <= 1 {
		lk = 1
	}
	return n/lk + d
}
