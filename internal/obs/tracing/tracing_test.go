package tracing

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer(capacity, sampleEvery int) *Tracer {
	return New(Config{Capacity: capacity, SampleEvery: sampleEvery, Seed: 42})
}

func TestSpanLifecycleAndParentage(t *testing.T) {
	tr := newTestTracer(16, 1)
	ctx, root := tr.Trace(context.Background(), "root", SpanRef{}, String("kind", "test"))
	if root == nil {
		t.Fatal("Trace returned nil span with a live tracer")
	}
	cctx, child := Start(ctx, "child")
	child.SetAttr(Int("i", 7))
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans(TraceID{})
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Recorded in End order: grandchild, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Name != "grandchild" || c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected span order: %q %q %q", g.Name, c.Name, r.Name)
	}
	if r.Trace.IsZero() || c.Trace != r.Trace || g.Trace != r.Trace {
		t.Fatal("spans do not share one trace ID")
	}
	if !r.Parent.IsZero() {
		t.Fatal("root span has a parent")
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Fatal("parent links broken")
	}
	if c.End < c.Start || r.End < r.Start {
		t.Fatal("span ended before it started")
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{"kind", "test"}) {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{"i", "7"}) {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
}

func TestRemoteContinuation(t *testing.T) {
	tr := newTestTracer(16, 1)
	remote := SpanRef{}
	remote.Trace[0], remote.Span[0] = 0xab, 0xcd
	_, sp := tr.Trace(context.Background(), "job", remote)
	sp.End()
	spans := tr.Spans(remote.Trace)
	if len(spans) != 1 {
		t.Fatalf("got %d spans for the remote trace, want 1", len(spans))
	}
	if spans[0].Trace != remote.Trace || spans[0].Parent != remote.Span {
		t.Fatal("continuation did not adopt the remote trace/parent")
	}
}

func TestNilTracerAndUntracedContextAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Trace(context.Background(), "x", SpanRef{})
	if sp != nil || ctx != context.Background() {
		t.Fatal("nil tracer must return the context unchanged and a nil span")
	}
	sp.SetAttr(String("k", "v")) // must not panic
	sp.End()
	if sp.Ref() != (SpanRef{}) {
		t.Fatal("nil span ref must be zero")
	}
	if _, sp := Start(ctx, "y"); sp != nil {
		t.Fatal("Start on an untraced context must return nil")
	}
	if _, sp := StartBulk(ctx, "y"); sp != nil {
		t.Fatal("StartBulk on an untraced context must return nil")
	}
	Record(ctx, "z", time.Now(), time.Now()) // must not panic
	if len(tr.Spans(TraceID{})) != 0 || tr.Spans(TraceID{}) != nil {
		t.Fatal("nil tracer must report no spans")
	}
}

func TestUntracedPathsDoNotAllocate(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if _, sp := Start(ctx, "p"); sp != nil {
			t.Fatal("unexpected span")
		}
	}); n != 0 {
		t.Fatalf("Start on untraced ctx allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, sp := StartBulk(ctx, "p"); sp != nil {
			t.Fatal("unexpected span")
		}
	}); n != 0 {
		t.Fatalf("StartBulk on untraced ctx allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if FromContext(ctx) != nil {
			t.Fatal("unexpected span")
		}
	}); n != 0 {
		t.Fatalf("FromContext allocates %v/op, want 0", n)
	}
}

func TestStartBulkSampling(t *testing.T) {
	tr := newTestTracer(1024, 4)
	ctx, root := tr.Trace(context.Background(), "root", SpanRef{})
	const calls = 100
	for i := 0; i < calls; i++ {
		_, sp := StartBulk(ctx, "bulk")
		sp.End()
	}
	root.End()
	got := 0
	for _, sp := range tr.Spans(TraceID{}) {
		if sp.Name == "bulk" {
			got++
		}
	}
	if got != calls/4 {
		t.Fatalf("recorded %d bulk spans of %d calls at 1-in-4, want %d", got, calls, calls/4)
	}

	every := newTestTracer(1024, 1)
	ctx, root = every.Trace(context.Background(), "root", SpanRef{})
	for i := 0; i < 10; i++ {
		_, sp := StartBulk(ctx, "bulk")
		sp.End()
	}
	root.End()
	if n := len(every.Spans(TraceID{})); n != 11 {
		t.Fatalf("SampleEvery=1 recorded %d spans, want 11", n)
	}
}

func TestRingEvictsOldestFirst(t *testing.T) {
	tr := newTestTracer(4, 1)
	ctx, root := tr.Trace(context.Background(), "root", SpanRef{})
	defer root.End()
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "s", Int("i", i))
		sp.End()
	}
	if len(tr.Spans(TraceID{})) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(tr.Spans(TraceID{})))
	}
	spans := tr.Spans(TraceID{})
	for j, sp := range spans {
		want := Attr{"i", []string{"6", "7", "8", "9"}[j]}
		if len(sp.Attrs) != 1 || sp.Attrs[0] != want {
			t.Fatalf("span %d = %v, want attr %v (oldest-first order)", j, sp.Attrs, want)
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := newTestTracer(16, 1)
	_, sp := tr.Trace(context.Background(), "once", SpanRef{})
	sp.End()
	sp.End()
	if n := len(tr.Spans(TraceID{})); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestRecordAggregateSpan(t *testing.T) {
	tr := newTestTracer(16, 1)
	ctx, root := tr.Trace(context.Background(), "root", SpanRef{})
	start := time.Now()
	Record(ctx, "phase", start, start.Add(5*time.Millisecond), Int("events", 12))
	root.End()
	spans := tr.Spans(TraceID{})
	if len(spans) != 2 || spans[0].Name != "phase" {
		t.Fatalf("spans = %+v, want recorded phase first", spans)
	}
	if d := time.Duration(spans[0].End - spans[0].Start); d != 5*time.Millisecond {
		t.Fatalf("phase duration = %v, want 5ms", d)
	}
	if spans[0].Parent != root.Ref().Span {
		t.Fatal("recorded span must be a child of the ctx span")
	}
}

func TestDeterministicIDsWithFixedSeed(t *testing.T) {
	a, b := newTestTracer(4, 1), newTestTracer(4, 1)
	_, sa := a.Trace(context.Background(), "x", SpanRef{})
	_, sb := b.Trace(context.Background(), "x", SpanRef{})
	if sa.Ref() != sb.Ref() {
		t.Fatal("same seed must yield the same ID stream")
	}
	if sa.Ref().Trace.IsZero() || sa.Ref().Span.IsZero() {
		t.Fatal("IDs must be non-zero")
	}
}

func TestConcurrentSpansRaceClean(t *testing.T) {
	tr := newTestTracer(128, 1)
	ctx, root := tr.Trace(context.Background(), "root", SpanRef{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := Start(ctx, "w", Int("g", g))
				_, bulk := StartBulk(ctx, "b")
				bulk.End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if len(tr.Spans(TraceID{})) != 128 {
		t.Fatalf("ring holds %d spans, want full 128", len(tr.Spans(TraceID{})))
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer(16, 1)
	ctx, sp := tr.Trace(context.Background(), "root", SpanRef{})
	h := http.Header{}
	Inject(ctx, h)
	v := h.Get(Header)
	want := "00-" + sp.Ref().Trace.String() + "-" + sp.Ref().Span.String() + "-01"
	if v != want {
		t.Fatalf("traceparent = %q, want %q", v, want)
	}
	ref := Extract(h)
	if ref != sp.Ref() {
		t.Fatalf("Extract = %+v, want %+v", ref, sp.Ref())
	}
}

func TestInjectWithoutSpanWritesNothing(t *testing.T) {
	h := http.Header{}
	Inject(context.Background(), h)
	if len(h) != 0 {
		t.Fatalf("header = %v, want empty", h)
	}
}

func TestExtractRejectsMalformedHeaders(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if Extract(header(valid)).IsZero() {
		t.Fatal("valid traceparent rejected")
	}
	bad := []string{
		"",
		"00",
		valid[:54],  // truncated
		valid + "0", // too long
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad version hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e47ZZ-00f067aa0ba902b7-01", // bad trace hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902ZZ-01", // bad span hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	}
	for _, v := range bad {
		if ref := Extract(header(v)); !ref.IsZero() {
			t.Errorf("Extract(%q) = %+v, want zero", v, ref)
		}
	}
}

func header(traceparent string) http.Header {
	h := http.Header{}
	if traceparent != "" {
		h.Set(Header, traceparent)
	}
	return h
}

func TestParseTraceID(t *testing.T) {
	id, ok := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok || id.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("ParseTraceID round trip failed: %v %v", id, ok)
	}
	for _, s := range []string{"", "zz", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("a", 31)} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted", s)
		}
	}
}

func TestHandlerExportsJSONLWithTraceFilter(t *testing.T) {
	tr := newTestTracer(16, 1)
	ctxA, a := tr.Trace(context.Background(), "opA", SpanRef{})
	_, aChild := Start(ctxA, "child")
	aChild.End()
	a.End()
	_, b := tr.Trace(context.Background(), "opB", SpanRef{})
	b.End()

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	lines := fetchLines(t, srv.URL)
	if len(lines) != 3 {
		t.Fatalf("unfiltered export has %d lines, want 3", len(lines))
	}

	lines = fetchLines(t, srv.URL+"?trace="+a.Ref().Trace.String())
	if len(lines) != 2 {
		t.Fatalf("filtered export has %d lines, want 2", len(lines))
	}
	names := map[string]bool{}
	for _, l := range lines {
		var rec struct {
			Trace, Span, Parent, Name string
			DurationNs                int64
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if rec.Trace != a.Ref().Trace.String() {
			t.Fatalf("filtered line has trace %s", rec.Trace)
		}
		names[rec.Name] = true
	}
	if !names["opA"] || !names["child"] {
		t.Fatalf("filtered export misses spans: %v", names)
	}

	resp, err := http.Get(srv.URL + "?trace=nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter got %d, want 400", resp.StatusCode)
	}
}

func fetchLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() != "" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
