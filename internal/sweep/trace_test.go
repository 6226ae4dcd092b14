package sweep

import (
	"context"
	"reflect"
	"testing"

	"bfdn/internal/obs/tracing"
)

// TestTracingPreservesResults pins the determinism contract: running the
// same grid under a traced context must yield results identical to the
// untraced run — spans observe the engine, they never steer it.
func TestTracingPreservesResults(t *testing.T) {
	pts := testGrid(t)
	opt := Options{Workers: 4, BaseSeed: 0xABCDEF}

	plain, _ := RunContext(context.Background(), pts, opt, nil)

	tracer := tracing.New(tracing.Config{SampleEvery: 1, Seed: 1})
	ctx, root := tracer.Trace(context.Background(), "test.sweep", tracing.SpanRef{})
	traced, _ := RunContext(ctx, pts, opt, nil)
	root.End()

	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("traced run's results differ from the untraced run")
	}
	if len(tracer.Spans(tracing.TraceID{})) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTracedRunRecordsWorkerAndPointSpans checks the engine's span shape:
// one sweep.worker span per pool worker that executed points, and — at
// SampleEvery=1 — one sweep.point span per point, parented to a worker span.
func TestTracedRunRecordsWorkerAndPointSpans(t *testing.T) {
	pts := testGrid(t)
	tracer := tracing.New(tracing.Config{SampleEvery: 1, Seed: 2})
	ctx, root := tracer.Trace(context.Background(), "test.sweep", tracing.SpanRef{})
	_, stats := RunContext(ctx, pts, Options{Workers: 3, BaseSeed: 7}, nil)
	root.End()

	workerSpans := map[string]bool{}
	points := 0
	for _, sp := range tracer.Spans(tracing.TraceID{}) {
		switch sp.Name {
		case "sweep.worker":
			workerSpans[sp.ID.String()] = true
		case "sweep.point":
			points++
		}
	}
	if len(workerSpans) == 0 || len(workerSpans) > stats.Workers {
		t.Errorf("sweep.worker spans = %d, want 1..%d", len(workerSpans), stats.Workers)
	}
	if points != len(pts) {
		t.Errorf("sweep.point spans = %d, want %d at SampleEvery=1", points, len(pts))
	}
	for _, sp := range tracer.Spans(tracing.TraceID{}) {
		if sp.Name == "sweep.point" && !workerSpans[sp.Parent.String()] {
			t.Errorf("sweep.point parent %s is not a sweep.worker span", sp.Parent)
		}
	}
}
