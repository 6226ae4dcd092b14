package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// seconds converts v seconds to a duration.
func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

func TestCounterAndFloatCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Counter.Value = %d, want 42", got)
	}

	var fc FloatCounter
	fc.AddDuration(seconds(1.5))
	fc.AddDuration(500 * time.Millisecond)
	fc.AddDuration(seconds(-3)) // ignored: counters only go up
	if got := fc.Value(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("FloatCounter.Value = %g, want 2.0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero Gauge reads %g", g.Value())
	}
	g.Add(3.5)
	g.Add(-1.25)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 2.25 {
		t.Fatalf("Gauge.Value = %g, want 2.25", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.ObserveDuration(seconds(v))
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-105.65) > 1e-6 {
		t.Fatalf("Sum = %g, want 105.65", got)
	}
	counts, _, _ := h.snapshot()
	// Bounds are inclusive: 0.1 lands in the first bucket.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], n, counts)
		}
	}
}

func TestHistogramObserveDurationExactSum(t *testing.T) {
	h := NewHistogram(DefDurationBuckets())
	h.ObserveDuration(time.Millisecond)
	h.ObserveDuration(time.Second)
	if got, want := h.Sum(), 1.001; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %.15g, want %.15g", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.ObserveDuration(seconds(0.5))
	b.ObserveDuration(seconds(1.5))
	b.ObserveDuration(seconds(99))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 {
		t.Fatalf("merged Count = %d, want 3", a.Count())
	}
	if got := a.Sum(); math.Abs(got-101) > 1e-6 {
		t.Fatalf("merged Sum = %g, want 101", got)
	}
	// Mismatched layouts must refuse.
	if err := a.Merge(NewHistogram([]float64{1, 3})); err == nil {
		t.Fatal("Merge accepted mismatched bounds")
	}
	if err := a.Merge(NewHistogram([]float64{1})); err == nil {
		t.Fatal("Merge accepted mismatched bucket count")
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
	for i, b := range DefDurationBuckets() {
		if i > 0 && b <= DefDurationBuckets()[i-1] {
			t.Fatal("DefDurationBuckets not increasing")
		}
	}
}

func TestRegistryPanicsOnDuplicateAndBadNames(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "")
	mustPanic("duplicate", func() { r.Gauge("a_total", "") })
	mustPanic("bad name", func() { r.Counter("0bad", "") })
	mustPanic("bad label", func() { r.CounterVec("b_total", "", "0bad") })
	mustPanic("no labels", func() { r.CounterVec("c_total", "") })
	mustPanic("label arity", func() { r.CounterVec("d_total", "", "x").With("1", "2") })
	mustPanic("empty buckets", func() { r.Histogram("e", "", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("f", "", []float64{2, 1}) })
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)

// commentLine matches # HELP / # TYPE lines.
var commentLine = regexp.MustCompile(`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|untyped))$`)

// CheckExposition asserts every line of a rendered registry matches the
// text exposition grammar; the server smoke test reuses it via the same
// regexes. It returns the sample lines.
func checkExposition(t *testing.T, text string) []string {
	t.Helper()
	var samples []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case commentLine.MatchString(line):
		case sampleLine.MatchString(line):
			samples = append(samples, line)
		default:
			t.Errorf("line violates exposition grammar: %q", line)
		}
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Total jobs.")
	c.Add(7)
	g := r.Gauge("inflight", "In-flight jobs.")
	g.Add(2)
	fc := r.FloatCounter("busy_seconds_total", "Busy time.")
	fc.AddDuration(seconds(1.5))
	hv := r.HistogramVec("req_seconds", "Latency.", []float64{0.1, 1}, "endpoint", "status")
	hv.With("explore", "200").ObserveDuration(seconds(0.05))
	hv.With("explore", "200").ObserveDuration(seconds(0.5))
	hv.With(`we"ird`, "500\n").ObserveDuration(seconds(2))
	cv := r.CounterVec("reqs_total", "Per endpoint.", "endpoint")
	cv.With("sweep").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkExposition(t, out)

	for _, want := range []string{
		"# TYPE jobs_total counter\njobs_total 7\n",
		"# TYPE inflight gauge\ninflight 2\n",
		"busy_seconds_total 1.5\n",
		`req_seconds_bucket{endpoint="explore",status="200",le="0.1"} 1`,
		`req_seconds_bucket{endpoint="explore",status="200",le="1"} 2`,
		`req_seconds_bucket{endpoint="explore",status="200",le="+Inf"} 2`,
		`req_seconds_sum{endpoint="explore",status="200"} 0.55`,
		`req_seconds_count{endpoint="explore",status="200"} 2`,
		`req_seconds_count{endpoint="we\"ird",status="500\n"} 1`,
		`reqs_total{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		v := r.CounterVec("x_total", "", "l")
		v.With("b").Inc()
		v.With("a").Add(2)
		var sb strings.Builder
		_ = r.WritePrometheus(&sb)
		return sb.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(build(), "x_total{l=\"a\"} 2\nx_total{l=\"b\"} 1\n") {
		t.Fatalf("children not sorted by label value:\n%s", build())
	}
}

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; exact totals prove no lost updates (run with -race in CI).
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	fc := r.FloatCounter("f_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DefDurationBuckets())
	hv := r.HistogramVec("hv_seconds", "", []float64{1}, "l")

	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				fc.AddDuration(seconds(0.001))
				g.Add(1)
				h.ObserveDuration(seconds(0.01))
				hv.With([]string{"a", "b"}[w%2]).ObserveDuration(seconds(2))
			}
		}(w)
	}
	wg.Wait()
	const total = workers * iters
	if c.Value() != total {
		t.Errorf("Counter = %d, want %d", c.Value(), total)
	}
	if got := fc.Value(); math.Abs(got-total*0.001) > 1e-6 {
		t.Errorf("FloatCounter = %g, want %g", got, float64(total)*0.001)
	}
	if got := g.Value(); got != total {
		t.Errorf("Gauge = %g, want %d", got, total)
	}
	if h.Count() != total {
		t.Errorf("Histogram.Count = %d, want %d", h.Count(), total)
	}
	if n := hv.With("a").Count() + hv.With("b").Count(); n != total {
		t.Errorf("vec counts = %d, want %d", n, total)
	}
}
