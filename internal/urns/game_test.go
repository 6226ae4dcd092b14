package urns

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
)

func playStandard(t *testing.T, k, delta int, p Player, a Adversary) Result {
	t.Helper()
	b, err := NewBoard(k, delta)
	if err != nil {
		t.Fatalf("NewBoard(%d,%d): %v", k, delta, err)
	}
	res, err := Play(b, p, a, 0, false)
	if err != nil {
		t.Fatalf("Play(k=%d Δ=%d): %v", k, delta, err)
	}
	return res
}

// totalBalls is the (invariant) total number of balls on b.
func totalBalls(b *Board) int {
	s := 0
	for i := 0; i < b.K(); i++ {
		s += b.Load(i)
	}
	return s
}

// freshCount is u_t = |U_t|, recounted.
func freshCount(b *Board) int {
	u := 0
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) {
			u++
		}
	}
	return u
}

// ballsInFresh is N_t, the number of balls in fresh urns.
func ballsInFresh(b *Board) int {
	n := 0
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) {
			n += b.Load(i)
		}
	}
	return n
}

func TestBoardConstructionErrors(t *testing.T) {
	if _, err := NewBoard(0, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBoard(3, 0); err == nil {
		t.Error("Δ=0 accepted")
	}
	if _, err := NewBoardFromLoads(nil, 2); err == nil {
		t.Error("empty loads accepted")
	}
	if _, err := NewBoardFromLoads([]int{1, -1}, 2); err == nil {
		t.Error("negative load accepted")
	}
}

func TestBoardInvariants(t *testing.T) {
	b, err := NewBoard(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if balls, fresh, n := totalBalls(b), freshCount(b), ballsInFresh(b); balls != 5 || fresh != 5 || n != 5 || b.freshCount != 5 {
		t.Errorf("initial board: balls=%d fresh=%d (counter %d) N=%d", balls, fresh, b.freshCount, n)
	}
	if b.Stopped() {
		t.Error("fresh board with Δ=3 already stopped")
	}
}

func TestTheorem3BoundAllAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adversaries := map[string]Adversary{
		"strategic":  StrategicAdversary{},
		"random":     &RandomAdversary{Rng: rng},
		"freshfirst": FreshFirstAdversary{},
		"drainmin":   DrainMinAdversary{},
	}
	for _, k := range []int{1, 2, 3, 8, 32, 128, 512} {
		for _, delta := range []int{1, 2, 5, 50, 1 << 20} {
			for name, a := range adversaries {
				res := playStandard(t, k, delta, LeastLoadedPlayer{}, a)
				bound := bounds.Theorem3(k, delta)
				if float64(res.Steps) > bound {
					t.Errorf("k=%d Δ=%d adversary=%s: %d steps exceed Theorem 3 bound %.1f",
						k, delta, name, res.Steps, bound)
				}
			}
		}
	}
}

func TestStrategicBeatsWeakAdversaries(t *testing.T) {
	for _, k := range []int{8, 64, 256} {
		strong := playStandard(t, k, k, LeastLoadedPlayer{}, StrategicAdversary{})
		weak := playStandard(t, k, k, LeastLoadedPlayer{}, FreshFirstAdversary{})
		if strong.Steps < weak.Steps {
			t.Errorf("k=%d: strategic adversary (%d steps) weaker than fresh-first (%d)",
				k, strong.Steps, weak.Steps)
		}
		dmin := playStandard(t, k, k, LeastLoadedPlayer{}, DrainMinAdversary{})
		if strong.Steps < dmin.Steps {
			t.Errorf("k=%d: strategic adversary (%d steps) weaker than drain-min (%d)",
				k, strong.Steps, dmin.Steps)
		}
	}
}

func TestStrategicGameGrowsLikeKLogK(t *testing.T) {
	// Against the optimal adversary with Δ ≥ k, the game lasts ~k·H_k steps;
	// check super-linear growth and the Theorem 3 ceiling.
	prevPerK := 0.0
	for _, k := range []int{4, 16, 64, 256} {
		res := playStandard(t, k, k, LeastLoadedPlayer{}, StrategicAdversary{})
		perK := float64(res.Steps) / float64(k)
		if perK < prevPerK {
			t.Errorf("k=%d: steps/k = %.2f decreased (was %.2f): expected ~log k growth", k, perK, prevPerK)
		}
		prevPerK = perK
	}
}

func TestPlayerAblationOrdering(t *testing.T) {
	// Least-loaded should not lose to most-loaded against the strategic
	// adversary (it is the provably optimal balancing rule).
	for _, k := range []int{16, 64} {
		ll := playStandard(t, k, k, LeastLoadedPlayer{}, StrategicAdversary{})
		ml := playStandard(t, k, k, MostLoadedPlayer{}, StrategicAdversary{})
		if ll.Steps > ml.Steps {
			t.Errorf("k=%d: least-loaded (%d) worse than most-loaded (%d)", k, ll.Steps, ml.Steps)
		}
	}
}

func TestAllPlayersTerminateWithinCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	players := map[string]Player{
		"least":  LeastLoadedPlayer{},
		"rr":     &RoundRobinPlayer{},
		"random": &RandomPlayer{Rng: rng},
		"most":   MostLoadedPlayer{},
	}
	for name, p := range players {
		for _, k := range []int{1, 5, 33} {
			b, err := NewBoard(k, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Play(b, p, StrategicAdversary{}, 0, false); err != nil {
				t.Errorf("player %s k=%d: %v", name, k, err)
			}
		}
	}
}

func TestBallConservationProperty(t *testing.T) {
	f := func(seedRaw int64, kRaw uint8) bool {
		k := 1 + int(kRaw)%24
		rng := rand.New(rand.NewSource(seedRaw))
		b, err := NewBoard(k, k)
		if err != nil {
			return false
		}
		p := LeastLoadedPlayer{}
		a := &RandomAdversary{Rng: rng}
		for t := 0; t < 4*k; t++ {
			if b.Stopped() {
				break
			}
			src := a.Choose(b)
			b.unfresh(src)
			dst := p.Choose(b, src)
			b.setLoad(src, b.Load(src)-1)
			b.setLoad(dst, b.Load(dst)+1)
			if totalBalls(b) != k {
				return false
			}
			// The incremental counters must equal their recount over the
			// fresh urns.
			deficient := 0
			for i := 0; i < k; i++ {
				if b.Fresh(i) && b.Load(i) < k {
					deficient++
				}
			}
			if b.freshCount != freshCount(b) || b.Stopped() != (deficient == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLeastLoadedBalancedInvariant(t *testing.T) {
	// Under the least-loaded player, fresh-urn loads stay within 1 of each
	// other ("the possible number of balls for an urn of U_t lies in
	// {⌈N/u⌉, ⌊N/u⌋}", proof of Theorem 3).
	b, err := NewBoard(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := LeastLoadedPlayer{}
	a := StrategicAdversary{}
	for t2 := 0; t2 < 5000; t2++ {
		if b.Stopped() {
			break
		}
		src := a.Choose(b)
		b.unfresh(src)
		dst := p.Choose(b, src)
		b.setLoad(src, b.Load(src)-1)
		b.setLoad(dst, b.Load(dst)+1)
		lo, hi := int(^uint(0)>>1), -1
		for i := 0; i < b.K(); i++ {
			if b.Fresh(i) {
				if b.Load(i) < lo {
					lo = b.Load(i)
				}
				if b.Load(i) > hi {
					hi = b.Load(i)
				}
			}
		}
		if b.freshCount > 0 && hi-lo > 1 {
			t.Fatalf("step %d: fresh loads spread %d..%d", t2, lo, hi)
		}
	}
}

func TestCustomInitialBoardLemma2Condition(t *testing.T) {
	// The Lemma 2 reduction starts with one urn holding k−u balls and u urns
	// with one ball each. The bound k(min{log k, log Δ}+2) must still hold.
	for _, k := range []int{8, 32, 128} {
		for _, u := range []int{1, k / 2, k - 1} {
			loads := make([]int, u+1)
			loads[0] = k - u
			for i := 1; i <= u; i++ {
				loads[i] = 1
			}
			// Pad with empty urns up to k urns total.
			for len(loads) < k {
				loads = append(loads, 0)
			}
			b, err := NewBoardFromLoads(loads, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Play(b, LeastLoadedPlayer{}, StrategicAdversary{}, 0, false)
			if err != nil {
				t.Fatalf("k=%d u=%d: %v", k, u, err)
			}
			if float64(res.Steps) > bounds.Theorem3(k, k)+float64(k) {
				t.Errorf("k=%d u=%d: %d steps exceed bound", k, u, res.Steps)
			}
		}
	}
}

func TestTraceRecording(t *testing.T) {
	b, _ := NewBoard(6, 6)
	res, err := Play(b, LeastLoadedPlayer{}, StrategicAdversary{}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Steps {
		t.Errorf("trace length %d != steps %d", len(res.Trace), res.Steps)
	}
	for i, s := range res.Trace {
		if s.From < 0 || s.From >= 6 || s.To < 0 || s.To >= 6 {
			t.Errorf("trace[%d] out of range: %+v", i, s)
		}
	}
}

func TestDegenerateSingleUrn(t *testing.T) {
	res := playStandard(t, 1, 1, LeastLoadedPlayer{}, StrategicAdversary{})
	// One urn with one ball, Δ=1: already stopped (load ≥ Δ).
	if res.Steps != 0 {
		t.Errorf("steps = %d, want 0", res.Steps)
	}
	res = playStandard(t, 1, 5, LeastLoadedPlayer{}, StrategicAdversary{})
	// Δ>k: stops when the single urn is chosen once.
	if res.Steps != 1 {
		t.Errorf("steps = %d, want 1", res.Steps)
	}
}
