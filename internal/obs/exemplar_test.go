package obs

import (
	"math"
	"testing"
)

func TestExemplarAttachAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1}).EnableExemplars()
	h.ObserveDuration(seconds(0.05))
	h.Exemplar(0.05, "aaaa")
	h.ObserveDuration(seconds(0.5))
	h.Exemplar(0.5, "bbbb")
	h.ObserveDuration(seconds(50))
	h.Exemplar(50, "cccc")

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("got %d exemplars, want 3", len(ex))
	}
	if ex[0].Bucket != 0 || ex[0].LE != 0.1 || ex[0].TraceID != "aaaa" || ex[0].Value != 0.05 {
		t.Fatalf("bucket 0 exemplar = %+v", ex[0])
	}
	if ex[1].Bucket != 1 || ex[1].LE != 1 || ex[1].TraceID != "bbbb" {
		t.Fatalf("bucket 1 exemplar = %+v", ex[1])
	}
	if ex[2].Bucket != 2 || !math.IsInf(ex[2].LE, 1) || ex[2].TraceID != "cccc" {
		t.Fatalf("overflow exemplar = %+v", ex[2])
	}

	// A later observation in the same bucket replaces the exemplar.
	h.Exemplar(0.06, "dddd")
	if got := h.Exemplars()[0]; got.TraceID != "dddd" || got.Value != 0.06 {
		t.Fatalf("replacement exemplar = %+v", got)
	}
}

func TestExemplarDisabledAndEmptyTraceAreNoOps(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Exemplar(0.5, "aaaa") // not enabled: must not panic
	if h.Exemplars() != nil {
		t.Fatal("disabled histogram reported exemplars")
	}
	h.EnableExemplars()
	h.Exemplar(0.5, "")
	if len(h.Exemplars()) != 0 {
		t.Fatal("empty trace ID attached an exemplar")
	}
}

func TestMergeCarriesExemplars(t *testing.T) {
	dst := NewHistogram([]float64{1}).EnableExemplars()
	dst.Exemplar(0.5, "old")
	dst.Exemplar(2, "keep")

	src := NewHistogram([]float64{1}).EnableExemplars()
	src.ObserveDuration(seconds(0.25))
	src.Exemplar(0.25, "new")

	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	ex := dst.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars after merge, want 2", len(ex))
	}
	if ex[0].TraceID != "new" {
		t.Fatalf("merge kept stale exemplar %+v", ex[0])
	}
	if ex[1].TraceID != "keep" {
		t.Fatalf("merge dropped untouched bucket's exemplar: %+v", ex[1])
	}

	// Merging into an exemplar-free histogram must stay valid.
	plain := NewHistogram([]float64{1})
	if err := plain.Merge(src); err != nil {
		t.Fatal(err)
	}
	if plain.Exemplars() != nil {
		t.Fatal("exemplars appeared on a disabled histogram")
	}
}
