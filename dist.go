package bfdn

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"bfdn/internal/dsweep"
	"bfdn/internal/obs/tracing"
)

// SweepSpec is one point of a distributed sweep. Unlike SweepPoint it names
// the tree by generator parameters instead of holding a materialized *Tree,
// so the spec can travel to whichever bfdnd worker runs it; identical specs
// generate identical trees everywhere. Its JSON form is the bfdnd sweep
// point schema with zero fields omitted, and it is what the coordinator
// hashes into the job ID and sends to workers.
type SweepSpec struct {
	// Family, N, Depth and TreeSeed select the generated tree (Depth is
	// family-specific; 0 selects the generator default).
	Family   Family `json:"family"`
	N        int    `json:"n"`
	Depth    int    `json:"depth,omitempty"`
	TreeSeed int64  `json:"treeSeed,omitempty"`
	// K is the robot count; Algorithm selects the exploration algorithm
	// (the zero value selects BFDN); Ell sets ℓ for BFDNRecursive.
	K         int       `json:"k"`
	Algorithm Algorithm `json:"algorithm,omitempty"`
	Ell       int       `json:"ell,omitempty"`
}

// DistLine is one merged record of a distributed sweep: the global point
// index plus exactly one of Report or Error. Report holds the worker's
// serialized Report verbatim — the coordinator never re-marshals it, which
// is what keeps distributed output byte-identical to a local run.
type DistLine = dsweep.Line

// DistStats summarizes one distributed sweep; its String is the one-line
// summary printed by cmd/experiments -workers.
type DistStats = dsweep.Stats

// DistOption tunes SweepDistributed.
type DistOption func(*dsweep.Options)

// WithDistHedging enables hedged dispatch of straggler tail shards: an idle
// worker duplicates the oldest in-flight shard once the queue is empty, and
// the first completion wins. Results are deterministic, so both copies agree
// and the duplicate is simply discarded.
func WithDistHedging() DistOption {
	return func(o *dsweep.Options) { o.Hedge = true }
}

// WithDistOnLine streams each merged line in strict global point order as
// soon as it is final, before SweepDistributed returns. Keep the callback
// fast: it runs under the coordinator's merge lock. A nil f streams nothing.
func WithDistOnLine(f func(DistLine)) DistOption {
	return func(o *dsweep.Options) { o.OnLine = f }
}

// WithDistTracer records the run as one distributed trace: a dsweep.run root
// with probe/partition/merge children and one dsweep.dispatch span per shard
// attempt (retries and hedge duplicates appear as sibling spans). Each
// dispatch carries a W3C traceparent header, so workers started with tracing
// enabled continue the coordinator's trace and the full fleet timeline can
// be reassembled from their GET /debug/traces exports by trace ID alone.
// Like WithSweepRecorder, only in-module callers can construct the argument.
func WithDistTracer(t *tracing.Tracer) DistOption {
	return func(o *dsweep.Options) { o.Tracer = t }
}

// WithDistStore journals the run into a persistent job store, keyed by the
// content-addressed plan: the shard cut and every completed shard's lines are
// written durably before they are merged, so a coordinator that crashes
// mid-sweep resumes by rerunning the identical command — journaled shards
// replay from disk (DistStats.Replayed) and only unfinished ones are
// dispatched, with the merged output byte-identical to an uninterrupted run.
func WithDistStore(js *JobStore) DistOption {
	return func(o *dsweep.Options) {
		if js != nil {
			o.Store = js.Store()
		}
	}
}

// SweepDistributed runs the spec grid across a fleet of bfdnd workers
// (base URLs like "http://host:8080") and merges the streamed results into
// strict point order. Per-point randomness is derived from (seed, index)
// exactly as in SweepContext, and report bytes pass through verbatim, so
// the returned lines are byte-identical to a local run of the same grid at
// any worker count and shard placement.
//
// The coordinator weights shard sizes by the fleet's GET /capacity
// advertisements, retries failed and busy shards with exponential backoff,
// fails a dead worker's unfinished shards over to the rest, and aborts
// everything when ctx is canceled. On error the merged prefix produced so
// far is returned alongside it.
func SweepDistributed(ctx context.Context, specs []SweepSpec, workers []string, seed int64, opts ...DistOption) ([]DistLine, DistStats, error) {
	var o dsweep.Options
	for _, opt := range opts {
		opt(&o)
	}
	plan := dsweep.Plan{Seed: seed, Points: make([]json.RawMessage, len(specs))}
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, DistStats{}, fmt.Errorf("bfdn: sweep spec %d: %w", i, err)
		}
		plan.Points[i] = b
	}
	return dsweep.Run(ctx, plan, workers, o)
}

// WriteDistJSONL renders lines as compact JSONL, one record per line — the
// same bytes a single bfdnd worker would stream for the whole grid, minus
// the trailing done line. Serializing a local run's reports through the same
// shape yields identical output, so diff is a sufficient integrity check.
func WriteDistJSONL(w io.Writer, lines []DistLine) error {
	return dsweep.WriteJSONL(w, lines)
}
