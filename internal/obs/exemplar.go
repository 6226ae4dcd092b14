package obs

import (
	"sync/atomic"
	"time"
)

// Exemplar links one histogram bucket to a recent trace: the most recent
// observation in that bucket that carried a trace ID. Exemplars are how an
// operator gets from "the p99 bucket is hot" to a concrete slow trace in
// GET /debug/traces (internal/obs/tracing).
type Exemplar struct {
	// Bucket is the bucket index; LE its inclusive upper bound
	// (math.Inf(1) for the overflow bucket).
	Bucket int     `json:"bucket"`
	LE     float64 `json:"le"`
	// Value is the observed sample that landed in the bucket.
	Value float64 `json:"value"`
	// TraceID is the linked trace (32 hex digits).
	TraceID string `json:"traceId"`
	// UnixNano is when the sample was attached.
	UnixNano int64 `json:"unixNano"`
}

// EnableExemplars allocates per-bucket exemplar slots and returns h. Call
// it once, before the histogram is observed concurrently; Exemplar and
// Exemplars are no-ops/empty on histograms without it, so the feature
// costs nothing unless switched on.
func (h *Histogram) EnableExemplars() *Histogram {
	if h.ex == nil {
		h.ex = make([]atomic.Pointer[Exemplar], len(h.counts))
	}
	return h
}

// Exemplar links v's bucket to traceID, replacing the bucket's previous
// exemplar. It does not count v — pair it with ObserveDuration
// (instrumentation calls it only for the sampled slice of observations
// that carry a span, so the store is off the steady-state hot path).
func (h *Histogram) Exemplar(v float64, traceID string) {
	if h.ex == nil || traceID == "" {
		return
	}
	i := len(h.bounds)
	le := inf
	for j, b := range h.bounds {
		if v <= b {
			i, le = j, b
			break
		}
	}
	h.ex[i].Store(&Exemplar{
		Bucket:   i,
		LE:       le,
		Value:    v,
		TraceID:  traceID,
		UnixNano: time.Now().UnixNano(),
	})
}

// Exemplars snapshots the buckets' current exemplars, lowest bucket first;
// buckets that never saw a traced observation are absent.
func (h *Histogram) Exemplars() []Exemplar {
	if h.ex == nil {
		return nil
	}
	out := make([]Exemplar, 0, len(h.ex))
	for i := range h.ex {
		if e := h.ex[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// mergeExemplars adopts src's exemplars (run-local recorders are merged
// when their run completes, so src's are the most recent); buckets src
// never touched keep h's.
func (h *Histogram) mergeExemplars(src *Histogram) {
	if h.ex == nil || src.ex == nil || len(h.ex) != len(src.ex) {
		return
	}
	for i := range src.ex {
		if e := src.ex[i].Load(); e != nil {
			h.ex[i].Store(e)
		}
	}
}
