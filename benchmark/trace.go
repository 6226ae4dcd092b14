package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the ID
// of the enclosing span (0 for a root). Aggregate spans fold many short
// calls (one SelectMoves per round, one Decide per event) into one record:
// their duration is the summed call time and Calls the number of calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Calls  int64  `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int { return t.startKey(parent, name, "") }

// startKey is start with a key attribute (an algorithm or request kind).
func (t *tracer) startKey(parent int, name, key string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// aggregate records calls summed to total as one child of parent, laid out
// from the parent's start.
func (t *tracer) aggregate(parent int, name, key string, total time.Duration, calls int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key,
		Start: start, End: start + total.Nanoseconds(), Calls: calls})
}

// matching returns the spans named name with the given key ("" matches any).
func (t *tracer) matching(name, key string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (key == "" || s.Key == key) {
			out = append(out, s)
		}
	}
	return out
}

// totalMs sums the durations of the matching spans.
func (t *tracer) totalMs(name, key string) float64 {
	var d time.Duration
	for _, s := range t.matching(name, key) {
		d += s.dur()
	}
	return ms(d)
}

// selfMs sums the matching spans' self time: duration minus the time their
// direct children cover.
func (t *tracer) selfMs(name, key string) float64 {
	spans := t.matching(name, key)
	ids := make(map[int]bool, len(spans))
	var d time.Duration
	for _, s := range spans {
		ids[s.ID] = true
		d += s.dur()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.spans {
		if ids[c.Parent] {
			d -= c.dur()
		}
	}
	return ms(d)
}

// durationsMs lists the matching spans' durations.
func (t *tracer) durationsMs(name, key string) []float64 {
	var out []float64
	for _, s := range t.matching(name, key) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recorder collects the timed loop's samples: one per job, from submission
// to first and to last verified line, and the cumulative count of verified
// points and process CPU time at the end of each interval of the loop.
type recorder struct {
	tr   *tracer
	root int

	points atomic.Int64

	mu      sync.Mutex
	jobMs   []float64
	firstMs []float64
	marks   []mark
}

type mark struct {
	at     time.Time
	points int64
	cpu    time.Duration
}

func (r *recorder) job(submit, first, last time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobMs = append(r.jobMs, ms(last.Sub(submit)))
	r.firstMs = append(r.firstMs, ms(first.Sub(submit)))
}

// mark closes an interval.
func (r *recorder) mark() {
	m := mark{time.Now(), r.points.Load(), cpuTime()}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marks = append(r.marks, m)
}

// markEvery closes an interval every d until stop is closed, then closes
// the last one.
func (r *recorder) markEvery(d time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.mark()
		case <-stop:
			r.mark()
			return
		}
	}
}

// intervals returns each interval's throughput and CPU time per point.
func (r *recorder) intervals() (perSec, cpuMsPerPoint []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		n := float64(b.points - a.points)
		if n == 0 {
			continue
		}
		perSec = append(perSec, n/b.at.Sub(a.at).Seconds())
		cpuMsPerPoint = append(cpuMsPerPoint, ms(b.cpu-a.cpu)/n)
	}
	return perSec, cpuMsPerPoint
}

// gate is the correctness gate: every point and request is attempted once,
// and any failed check counts as a failure.
type gate struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// check counts one attempt, failed when err is non-nil.
func (g *gate) check(err error) bool {
	g.attempted.Add(1)
	if err == nil {
		return true
	}
	g.failed.Add(1)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < 10 {
		g.errs = append(g.errs, err.Error())
	}
	return false
}

// pass counts n attempts whose checks were made elsewhere and passed.
func (g *gate) pass(n int) { g.attempted.Add(int64(n)) }

// checkf counts one attempt that fails unless ok.
func (g *gate) checkf(ok bool, format string, args ...any) bool {
	if ok {
		return g.check(nil)
	}
	return g.check(fmt.Errorf(format, args...))
}

func (g *gate) errors() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.errs...)
}
