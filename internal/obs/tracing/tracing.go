// Package tracing is the repository's zero-dependency distributed tracing
// subsystem, the span-shaped sibling of the metrics package it lives under
// (internal/obs, DESIGN.md S25/S30). It implements no part of the paper —
// it is reproduction-infrastructure observability: when a sweep point is
// slow or a hedge fires somewhere in a bfdnd fleet, spans are the only way
// to see *where* the time went across coordinator dispatch, worker
// admission, engine execution, retries and merge.
//
// The design goals mirror internal/obs:
//
//   - Per-process state, nothing global. A Tracer owns a bounded ring
//     buffer of completed spans; every daemon or coordinator creates its
//     own (or none).
//
//   - Zero cost when off. All instrumentation points are keyed off the
//     span carried in a context.Context: with no tracer configured,
//     Start/StartBulk return (ctx, nil) without allocating, and every
//     method on a nil *ActiveSpan is a no-op. Hot loops pay one pointer
//     comparison.
//
//   - Sampling for bulk work. Per-point spans inside a sweep would melt
//     the ring; StartBulk records 1 in Config.SampleEvery of them, so
//     steady-state sweeps stay allocation-free while slow points still
//     show up.
//
//   - W3C interop at the wire. Inject/Extract speak the traceparent
//     header (00-<trace>-<span>-<flags>), so the dsweep coordinator's
//     trace ID reaches every bfdnd worker it dispatches to and the fleet's
//     rings reassemble into one trace by ID alone (GET /debug/traces).
//
// Span identity is two levels: a 16-byte TraceID shared by every span of
// one logical operation (a distributed sweep, one HTTP job), and an 8-byte
// SpanID per span with a Parent link. IDs come from a splitmix64 stream
// seeded per tracer, so tests can fix Config.Seed for reproducible IDs.
package tracing

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical operation across processes (32 hex digits
// on the wire). The zero value means "no trace".
type TraceID [16]byte

// SpanID identifies one span within a trace (16 hex digits on the wire).
// The zero value means "no span" (a root span's Parent).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0xf])
	}
	return dst
}

// String renders the ID as 32 lower-case hex digits (the traceparent form).
func (t TraceID) String() string { return string(appendHex(make([]byte, 0, 32), t[:])) }

// String renders the ID as 16 lower-case hex digits (the traceparent form).
func (s SpanID) String() string { return string(appendHex(make([]byte, 0, 16), s[:])) }

// SpanRef names a span for propagation: the pair a child in another
// process needs to attach to its remote parent. The zero value means
// "no parent" and starts a fresh trace.
type SpanRef struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the ref carries no trace.
func (r SpanRef) IsZero() bool { return r.Trace.IsZero() }

// Attr is one key/value annotation on a span. Values are strings; use the
// String/Int/Int64 constructors.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Int64 builds an integer-valued attribute.
func Int64(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Span is one completed timed operation. Start and End are wall-clock
// Unix nanoseconds; the duration is measured monotonically and applied to
// Start, so End-Start is immune to clock steps.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for trace roots
	Name   string
	Start  int64 // Unix nanoseconds
	End    int64 // Unix nanoseconds; 0 while the span is active
	Attrs  []Attr
}

// Config tunes a Tracer. The zero value selects the defaults.
type Config struct {
	// Capacity bounds the ring buffer of completed spans; once full, new
	// spans evict the oldest. ≤ 0 selects 4096.
	Capacity int
	// SampleEvery gates StartBulk: 1 in SampleEvery bulk spans is
	// recorded (per-point sweep spans use this so steady-state sweeps stay
	// allocation-free). ≤ 0 selects 64; 1 records every bulk span.
	SampleEvery int
	// Seed scrambles the splitmix64 ID stream; 0 derives a seed from the
	// clock. Fix it in tests for reproducible IDs.
	Seed uint64
}

// Tracer records completed spans into a bounded ring. Create with New; a
// nil *Tracer is valid everywhere and records nothing.
type Tracer struct {
	sampleEvery uint64
	idSeq       atomic.Uint64
	idBase      uint64
	bulkSeq     atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	total uint64 // spans ever recorded; ring index = total % cap
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(time.Now().UnixNano())
	}
	return &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		idBase:      splitmix64(cfg.Seed),
		ring:        make([]Span, 0, cfg.Capacity),
	}
}

// splitmix64 is the finalizer also used for sweep seed derivation: every
// counter value maps to a well-mixed, distinct output.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID draws the next non-zero 64-bit ID from the tracer's stream.
func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.idBase + t.idSeq.Add(1)); id != 0 {
			return id
		}
	}
}

func putUint64(dst []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte(v)
		v >>= 8
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	putUint64(id[:8], t.nextID())
	putUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	putUint64(id[:], t.nextID())
	return id
}

// record moves a completed span into the ring, evicting the oldest once
// the ring is full. One short critical section per completed span — spans
// end orders of magnitude less often than metrics are observed.
func (t *Tracer) record(sp *Span) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *sp)
	} else {
		t.ring[t.total%uint64(cap(t.ring))] = *sp
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns the retained completed spans, oldest first. A non-zero
// trace filters to that trace's spans.
func (t *Tracer) Spans(trace TraceID) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	n := uint64(len(t.ring))
	start := uint64(0)
	if n == uint64(cap(t.ring)) {
		start = t.total % n
	}
	for i := uint64(0); i < n; i++ {
		sp := &t.ring[(start+i)%n]
		if !trace.IsZero() && sp.Trace != trace {
			continue
		}
		out = append(out, *sp)
	}
	return out
}

// ActiveSpan is a started, not-yet-recorded span. It is owned by the
// goroutine that started it (hand child work a child span, not the
// handle). The nil *ActiveSpan is the "tracing off" form: every method is
// a no-op, so instrumented code never branches on it.
type ActiveSpan struct {
	tracer  *Tracer
	started time.Time // monotonic anchor for the duration
	span    Span
}

func (t *Tracer) start(trace TraceID, parent SpanID, name string, attrs []Attr) *ActiveSpan {
	now := time.Now()
	sp := &ActiveSpan{
		tracer:  t,
		started: now,
		span: Span{
			Trace:  trace,
			ID:     t.newSpanID(),
			Parent: parent,
			Name:   name,
			Start:  now.UnixNano(),
		},
	}
	if len(attrs) > 0 {
		sp.span.Attrs = append(sp.span.Attrs, attrs...)
	}
	return sp
}

// SetAttr appends annotations; call before End.
func (s *ActiveSpan) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.span.Attrs = append(s.span.Attrs, attrs...)
}

// End stamps the span's duration and records it into the tracer's ring.
// End is idempotent: second and later calls are no-ops.
func (s *ActiveSpan) End() {
	if s == nil || s.tracer == nil {
		return
	}
	s.span.End = s.span.Start + time.Since(s.started).Nanoseconds()
	s.tracer.record(&s.span)
	s.tracer = nil
}

// Ref names the span for propagation and log correlation; the zero ref on
// nil spans lets callers skip correlation fields when tracing is off.
func (s *ActiveSpan) Ref() SpanRef {
	if s == nil {
		return SpanRef{}
	}
	return SpanRef{Trace: s.span.Trace, Span: s.span.ID}
}
