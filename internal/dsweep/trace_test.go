package dsweep_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"bfdn/internal/dsweep"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/server"
)

// fleetSpan mirrors the JSONL line shape shared by the coordinator tracer's
// WriteJSONL and the workers' GET /debug/traces exports.
type fleetSpan struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent"`
	Name   string            `json:"name"`
	Attrs  map[string]string `json:"attrs"`
}

// exportSpans decodes one JSONL span stream.
func exportSpans(t *testing.T, r io.Reader) []fleetSpan {
	t.Helper()
	var spans []fleetSpan
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var sp fleetSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// workerSpans pulls one worker's spans for a single trace from its
// GET /debug/traces export — the reassembly path an operator uses, keyed by
// nothing but the trace ID.
func workerSpans(t *testing.T, url, trace string) []fleetSpan {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces?trace=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/debug/traces: status %d", url, resp.StatusCode)
	}
	return exportSpans(t, resp.Body)
}

// TestFleetTraceReassembly is the distributed acceptance scenario: a traced
// coordinator run against a two-worker fleet produces ONE trace — the
// coordinator's dispatch and merge spans plus, on each worker, the
// admission→run span tree continued from the dispatch's traceparent — and
// the whole timeline reassembles from the workers' /debug/traces exports by
// trace ID alone.
func TestFleetTraceReassembly(t *testing.T) {
	// One tracer per worker: each daemon owns its ring, exactly as separate
	// bfdnd processes would.
	tracedWorker := func() server.Config {
		return server.Config{
			MaxJobs: 2, SweepWorkers: 2, MaxPoints: 3,
			Tracer: tracing.New(tracing.Config{SampleEvery: 1}),
		}
	}
	urls := []string{
		startWorker(t, tracedWorker(), nil),
		startWorker(t, tracedWorker(), nil),
	}
	plan := testPlan(12)
	tracer := tracing.New(tracing.Config{Seed: 3})

	lines, stats, err := dsweep.Run(context.Background(), plan, urls,
		dsweep.Options{Tracer: tracer})
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)

	// The coordinator half: one dsweep.run root owning probe, partition,
	// every dispatch, and one merge record per shard.
	coord := tracer.Spans(tracing.TraceID{})
	roots := map[string]string{} // span ID → trace, for the root only
	var trace string
	byName := map[string][]fleetSpan{}
	dispatchSpan := map[string]bool{}
	for _, sp := range coord {
		fs := fleetSpan{Trace: sp.Trace.String(), Span: sp.ID.String(),
			Name: sp.Name}
		if !sp.Parent.IsZero() {
			fs.Parent = sp.Parent.String()
		}
		byName[fs.Name] = append(byName[fs.Name], fs)
		if fs.Name == "dsweep.run" {
			roots[fs.Span] = fs.Trace
			trace = fs.Trace
		}
		if fs.Name == "dsweep.dispatch" {
			dispatchSpan[fs.Span] = true
		}
	}
	if len(roots) != 1 {
		t.Fatalf("dsweep.run roots = %d, want 1", len(roots))
	}
	for _, name := range []string{"dsweep.probe", "dsweep.partition"} {
		if len(byName[name]) != 1 {
			t.Fatalf("%s spans = %d, want 1", name, len(byName[name]))
		}
	}
	if got := len(byName["dsweep.dispatch"]); got != stats.Shards {
		t.Fatalf("dispatch spans = %d, want one per shard (%d)", got, stats.Shards)
	}
	if got := len(byName["dsweep.merge"]); got != stats.Shards {
		t.Fatalf("merge spans = %d, want one per shard (%d)", got, stats.Shards)
	}
	for _, sp := range coord {
		if sp.Trace.String() != trace {
			t.Fatalf("coordinator span %s escaped trace %s", sp.Name, trace)
		}
	}

	// The worker halves: every shard's bfdnd.sweep job span carries the
	// coordinator's trace ID and hangs off one of its dispatch spans, and
	// both workers contributed (each completed at least one shard).
	jobsSeen := 0
	for _, url := range urls {
		spans := workerSpans(t, url, trace)
		if len(spans) == 0 {
			t.Errorf("worker %s exported no spans for trace %s", url, trace)
			continue
		}
		jobSpan := map[string]bool{}
		for _, sp := range spans {
			if sp.Name == "bfdnd.sweep" {
				if !dispatchSpan[sp.Parent] {
					t.Errorf("worker job %s has parent %q — not a coordinator dispatch span",
						sp.Span, sp.Parent)
				}
				jobSpan[sp.Span] = true
				jobsSeen++
			}
		}
		// Each job's queue/run children close the admission→run chain.
		runs := 0
		for _, sp := range spans {
			if sp.Name == "bfdnd.run" {
				if !jobSpan[sp.Parent] {
					t.Errorf("bfdnd.run parent %q is not a job span", sp.Parent)
				}
				runs++
			}
		}
		if runs == 0 {
			t.Errorf("worker %s has job spans but no bfdnd.run children", url)
		}
	}
	if jobsSeen != stats.Shards {
		t.Errorf("worker job spans = %d, want one per shard (%d)", jobsSeen, stats.Shards)
	}
}

// TestFleetTraceHedgeSiblings pins the hedge shape: when an idle worker
// duplicates a straggler shard, both attempts appear as sibling
// dsweep.dispatch spans under the one dsweep.run root, the duplicate marked
// hedge=true.
func TestFleetTraceHedgeSiblings(t *testing.T) {
	healthy := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2}, nil)
	release := make(chan struct{})
	stuck := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
			if sweepN == 1 {
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-release:
				}
				return
			}
			inner.ServeHTTP(w, r)
		})
	t.Cleanup(func() { close(release) })
	plan := testPlan(8)
	tracer := tracing.New(tracing.Config{Seed: 5})

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{healthy, stuck},
		dsweep.FastFaults(dsweep.Options{Hedge: true, Tracer: tracer}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if stats.Hedges < 1 {
		t.Fatalf("Hedges = %d, want ≥ 1", stats.Hedges)
	}

	// Group dispatch spans by shard range: the hedged shard has two sibling
	// attempts under the same parent, exactly one marked as the hedge.
	var rootSpan string
	type attempt struct{ parent, hedge string }
	byShard := map[string][]attempt{}
	for _, sp := range tracer.Spans(tracing.TraceID{}) {
		switch sp.Name {
		case "dsweep.run":
			rootSpan = sp.ID.String()
		case "dsweep.dispatch":
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			key := attrs["lo"] + "-" + attrs["hi"]
			byShard[key] = append(byShard[key], attempt{
				parent: sp.Parent.String(), hedge: attrs["hedge"]})
		}
	}
	hedgedShards := 0
	for key, atts := range byShard {
		hedges := 0
		for _, a := range atts {
			if a.parent != rootSpan {
				t.Errorf("shard %s attempt parent = %q, want the dsweep.run root %q",
					key, a.parent, rootSpan)
			}
			if a.hedge == "true" {
				hedges++
			}
		}
		if hedges > 0 {
			hedgedShards++
			if len(atts) < 2 {
				t.Errorf("shard %s marked hedged but has %d attempt span(s)", key, len(atts))
			}
		}
	}
	if hedgedShards < 1 {
		t.Errorf("no dispatch span carries hedge=true despite %d hedges", stats.Hedges)
	}
}
