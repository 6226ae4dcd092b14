package dsweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// merger reassembles shard results into strict global point order. Shards
// complete in arbitrary order; a completed shard's lines are buffered until
// every earlier point has been emitted, so the output stream — and the
// final slice — reads exactly like a single local run. Delivering the same
// shard twice is a no-op (hedge duplicates carry identical bytes, the first
// copy wins). Once the run's context is done nothing more is emitted: a
// caller that canceled from OnLine sees no line after its cancel.
type merger struct {
	ctx    context.Context
	mu     sync.Mutex
	buf    map[int][]Line // shard lo → its lines, awaiting turn
	next   int            // next global point index to emit
	out    []Line
	onLine func(Line)
}

func newMerger(ctx context.Context, onLine func(Line)) *merger {
	return &merger{ctx: ctx, buf: map[int][]Line{}, onLine: onLine}
}

// deliver accepts one completed shard's lines (already carrying global
// point indices) and emits every line whose turn has come.
func (m *merger) deliver(lo int, lines []Line) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lo < m.next {
		return // duplicate of an already-emitted shard
	}
	if _, dup := m.buf[lo]; dup {
		return
	}
	m.buf[lo] = lines
	for m.ctx.Err() == nil {
		ls, ok := m.buf[m.next]
		if !ok {
			break
		}
		delete(m.buf, m.next)
		m.next += len(ls)
		for _, l := range ls {
			if m.ctx.Err() != nil {
				break
			}
			m.out = append(m.out, l)
			if m.onLine != nil {
				m.onLine(l)
			}
		}
	}
}

// lines returns everything emitted so far, in point order.
func (m *merger) lines() []Line {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.out
}

// WriteJSONL renders lines in the coordinator's canonical JSONL form, one
// compact record per line. A local run serialized with this same function
// is byte-identical to a distributed run's merged output — the equivalence
// the test suite asserts and operators can spot-check with diff.
func WriteJSONL(w io.Writer, lines []Line) error {
	enc := json.NewEncoder(w)
	for i, l := range lines {
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("dsweep: write line %d: %w", i, err)
		}
	}
	return nil
}
