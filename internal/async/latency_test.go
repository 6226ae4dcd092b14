package async

import (
	"math"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

func TestParseLatencyRoundTrip(t *testing.T) {
	for _, spec := range []string{"constant", "jitter:0.5", "jitter:2", "pareto:1.5", "pareto:3"} {
		lat, err := ParseLatency(spec)
		if err != nil {
			t.Fatalf("ParseLatency(%q): %v", spec, err)
		}
		if lat.String() != spec {
			t.Errorf("ParseLatency(%q).String() = %q", spec, lat.String())
		}
		back, err := ParseLatency(lat.String())
		if err != nil || back != lat {
			t.Errorf("round trip of %q gives %v, %v", spec, back, err)
		}
	}
	if lat, err := ParseLatency(""); err != nil || lat != (Constant{}) {
		t.Errorf("empty spec: got %v, %v — want Constant", lat, err)
	}
}

func TestParseLatencyErrors(t *testing.T) {
	for _, spec := range []string{
		"constant:1", "jitter", "jitter:", "jitter:0", "jitter:-1", "jitter:x",
		"jitter:Inf", "jitter:NaN", "pareto", "pareto:1", "pareto:0.5",
		"pareto:abc", "uniform", "gauss:1",
	} {
		if _, err := ParseLatency(spec); err == nil {
			t.Errorf("ParseLatency(%q) accepted", spec)
		}
	}
}

func TestLatencySampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	speeds := []float64{0.5, 1, 2, 8}
	models := []Latency{Constant{}, Jitter{Frac: 0.5}, Jitter{Frac: 3}, HeavyTail{Alpha: 1.5}, HeavyTail{Alpha: 4}}
	for _, lat := range models {
		for _, s := range speeds {
			nominal := 1 / s
			for i := 0; i < 2000; i++ {
				d := lat.Sample(s, rng)
				// Every model is a pure delay: never faster than the nominal
				// rate, so LowerBound stays a valid floor.
				if d < nominal {
					t.Fatalf("%s: sample %v below nominal %v at speed %v", lat, d, nominal, s)
				}
				if mf := lat.MaxFactor(); mf > 0 && d > mf*nominal+1e-12 {
					t.Fatalf("%s: sample %v above MaxFactor envelope %v at speed %v", lat, d, mf*nominal, s)
				}
			}
		}
	}
}

func TestLatencyMaxFactor(t *testing.T) {
	if got := (Constant{}).MaxFactor(); got != 1 {
		t.Errorf("Constant.MaxFactor = %v", got)
	}
	if got := (Jitter{Frac: 0.5}).MaxFactor(); got != 1.5 {
		t.Errorf("Jitter{0.5}.MaxFactor = %v", got)
	}
	if got := (HeavyTail{Alpha: 2}).MaxFactor(); got != 0 {
		t.Errorf("HeavyTail.MaxFactor = %v, want 0 (unbounded)", got)
	}
}

func TestConstantDrawsNoRandomness(t *testing.T) {
	// Constant must not consume the stream: two engines that differ only in
	// seed behave identically under it (the determinism contract's corollary
	// that fixed-speed runs are seed-independent).
	rng := rand.New(rand.NewSource(5))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(5))
	Constant{}.Sample(1, rng)
	if rng.Int63() != before {
		t.Error("Constant.Sample consumed the rng stream")
	}
}

// badLatency samples a fixed duration, whatever the speed.
type badLatency float64

func (b badLatency) Sample(float64, *rand.Rand) float64 { return float64(b) }
func (badLatency) MaxFactor() float64                   { return 1 }
func (b badLatency) String() string                     { return "bad" }

// TestLatencyBelowNominalIsAnError: a sample that is NaN, negative or
// below the nominal 1/speed breaks the Latency contract that LowerBound and
// the event keys rely on, so the run stops with an error instead of
// scheduling it.
func TestLatencyBelowNominalIsAnError(t *testing.T) {
	for _, d := range []float64{math.NaN(), -1, 0, 0.4999} {
		e, err := NewEngine(tree.Star(4), []float64{2}, WithLatency(badLatency(d)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(0); err == nil {
			t.Errorf("latency sample %v at speed 2 ran without an error", d)
		}
	}
	e, err := NewEngine(tree.Star(4), []float64{2}, WithLatency(badLatency(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err != nil {
		t.Errorf("latency sample at the nominal 0.5: %v", err)
	}
}
