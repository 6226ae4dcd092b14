package dsweep

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"bfdn/internal/jobstore"
	"bfdn/internal/obs/tracing"
)

// Plan is a complete distributed sweep: the deterministic base seed and the
// ordered point grid. Point i's randomness is sweep.DeriveSeed(Seed, i)
// wherever it executes. Each point is the canonical JSON of one bfdnd sweep
// point, which the coordinator never decodes: it only slices the points into
// shard bodies and hashes the plan into the job ID.
type Plan struct {
	Seed   int64
	Points []json.RawMessage
}

// Line is one merged result record, and the JSONL line shape the
// coordinator emits: the global point index plus exactly one of Report
// (the worker's serialized bfdn.Report, passed through byte-for-byte) or
// Error. It matches the point-line shape of the worker's own stream, so
// merged output is byte-identical to a single worker running the whole
// plan — and, report bytes being canonical encoding/json output, to a
// local run serialized the same way.
type Line struct {
	Point  int             `json:"point"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Options tune the coordinator. The zero value is valid.
type Options struct {
	// Hedge enables hedged dispatch of straggler tail shards: when the
	// queue is empty and a worker is idle, it re-dispatches the oldest
	// in-flight shard; the first completion wins and the duplicate is
	// discarded (results are deterministic, so both copies agree).
	Hedge bool
	// Tracer, when non-nil, records the run as one trace: a dsweep.run root
	// with probe/partition/merge children and one dsweep.dispatch span per
	// shard attempt (retries and hedge duplicates appear as siblings). The
	// trace context is propagated to workers as a traceparent header, so a
	// traced fleet's worker spans join the coordinator's trace ID.
	Tracer *tracing.Tracer
	// OnLine, when non-nil, streams each merged line in strict global point
	// order as soon as it is final. It is called from coordinator
	// goroutines under the merge lock: keep it fast.
	OnLine func(Line)
	// Store, when non-nil, makes the run resumable (DESIGN.md S30): the job
	// is keyed by the content hash of the plan, the shard cut is journaled
	// before any dispatch, and every winning shard's lines are journaled
	// durably before the merger emits them — so a coordinator killed at any
	// instant can be restarted with the same plan and Store and resume from
	// the journal. Replayed lines stream through OnLine exactly like live
	// ones, in the same strict order, and the merged output stays
	// byte-identical to an uninterrupted run; a job already marked done is
	// answered entirely from the journal without contacting any worker.
	Store *jobstore.Store

	// retryBase, retryMax and workerFailLimit override the constants of
	// the same names when non-zero. Only the fault-injection tests set
	// them, so that a failing worker is declared dead before a healthy
	// one has drained the queue.
	retryBase, retryMax time.Duration
	workerFailLimit     int
}

// The coordinator's fixed budgets. Every worker request goes through
// http.DefaultClient, with no global timeout: each attempt has its own.
const (
	// shardTimeout bounds one dispatch attempt of one shard, end to end
	// (connection, worker simulation, stream read). It is also sent to the
	// worker as the request's timeoutMs so the worker's deadline matches
	// the coordinator's.
	shardTimeout = 2 * time.Minute
	// capacityTimeout bounds the startup GET /capacity probe per worker,
	// and each registry call (AnnounceOnce, FetchWorkers).
	capacityTimeout = 5 * time.Second
	// maxAttempts bounds how many times one shard may be dispatched after
	// failures (transport errors, 5xx, malformed streams) before the whole
	// run fails. Busy responses (429, 503) have their own budget,
	// maxBusyRetries, since they signal back-off, not damage.
	maxAttempts    = 4
	maxBusyRetries = 10
	// retryBase and retryMax shape the per-worker exponential backoff with
	// jitter after a failed or busy attempt.
	retryBase = 50 * time.Millisecond
	retryMax  = 2 * time.Second
	// workerFailLimit is how many consecutive failures mark a worker dead
	// (its unfinished shards fail over to the others).
	workerFailLimit = 3
	// inflightPerWorker caps concurrent shards on one worker, further
	// clamped by the worker's advertised maxJobs.
	inflightPerWorker = 2
	// oversub targets oversub shards per in-flight slot when cutting the
	// plan, so the queue stays long enough for work stealing and failover
	// to balance load. maxShardPoints caps shard size, further clamped by
	// the smallest advertised maxPoints.
	oversub        = 4
	maxShardPoints = 512
)

// Stats summarizes one coordinator run.
type Stats struct {
	// Points and Shards are the plan size and how it was cut; Workers is
	// how many workers participated (reachable at startup, not draining).
	Points  int
	Shards  int
	Workers int
	// Retries counts re-dispatches after failed or busy attempts;
	// Failovers counts shards that completed on a different worker than
	// one that failed them; Hedges counts duplicate tail dispatches;
	// DeadWorkers counts workers dropped mid-run.
	Retries     int
	Failovers   int
	Hedges      int
	DeadWorkers int
	// Replayed counts points answered from the job store's journal instead
	// of being dispatched (always 0 without Options.Store).
	Replayed int
	// Elapsed is the wall-clock duration; ShardsByWorker is the number of
	// shards each worker completed (winning copy only).
	Elapsed        time.Duration
	ShardsByWorker map[string]int
}

// String renders the one-line form printed by cmd/experiments -workers.
func (s Stats) String() string {
	return fmt.Sprintf("%d points in %d shards over %d workers in %v (%d retries, %d failovers, %d hedges, %d dead workers)",
		s.Points, s.Shards, s.Workers, s.Elapsed.Round(time.Millisecond),
		s.Retries, s.Failovers, s.Hedges, s.DeadWorkers)
}

// Run executes plan across the given worker base URLs and returns one Line
// per point, in point order, byte-compatible with a local run of the same
// plan. It fails when no worker is usable, when a shard exhausts its retry
// budget, when a worker rejects the plan as invalid (HTTP 400 — retrying
// cannot help), or when ctx is canceled; on failure the merged prefix
// produced so far is returned alongside the error.
func Run(ctx context.Context, plan Plan, workers []string, opts Options) ([]Line, Stats, error) {
	opts.retryBase = cmp.Or(opts.retryBase, retryBase)
	opts.retryMax = cmp.Or(opts.retryMax, retryMax)
	opts.workerFailLimit = cmp.Or(opts.workerFailLimit, workerFailLimit)
	stats := Stats{Points: len(plan.Points), ShardsByWorker: map[string]int{}}
	if len(plan.Points) == 0 {
		return nil, stats, nil
	}

	// With a Store, open the content-addressed job and replay its journal
	// before touching the fleet: a done job is answered entirely from disk,
	// a partial one pre-seeds the merger below.
	var job *jobstore.Job
	var journaled map[int][]Line
	cutSize := 0
	if opts.Store != nil {
		var err error
		if job, err = openJob(opts.Store, plan); err != nil {
			return nil, stats, err
		}
		if cutSize, journaled, err = replayJob(job, len(plan.Points)); err != nil {
			return nil, stats, err
		}
		if job.IsDone() {
			lines, err := journaledLines(job, journaled, len(plan.Points), cutSize)
			if err != nil {
				return nil, stats, err
			}
			stats.Replayed = len(lines)
			if opts.OnLine != nil {
				for _, l := range lines {
					opts.OnLine(l)
				}
			}
			return lines, stats, nil
		}
	}
	if len(workers) == 0 {
		return nil, stats, fmt.Errorf("dsweep: no workers given")
	}

	start := time.Now()
	// The root span rides ctx from here on: dispatch spans, merge records and
	// the injected traceparent all descend from it. A nil Tracer yields a nil
	// span and an unchanged ctx, so the untraced path costs one pointer check.
	ctx, root := opts.Tracer.Trace(ctx, "dsweep.run", tracing.SpanRef{},
		tracing.Int("points", len(plan.Points)), tracing.Int("workers", len(workers)))
	defer root.End()

	probeStart := time.Now()
	fleet, err := probeFleet(ctx, workers)
	tracing.Record(ctx, "dsweep.probe", probeStart, time.Now(),
		tracing.Int("fleet", len(fleet)))
	if err != nil {
		return nil, stats, err
	}
	stats.Workers = len(fleet)

	// A resumed run reuses the journaled shard size — the cut must be a pure
	// function of the plan once journaled, or shard boundaries would drift
	// from the WAL ranges whenever the fleet changed between runs. A fresh
	// run computes the size from the fleet and journals it before dispatch.
	partStart := time.Now()
	size := cutSize
	if size == 0 {
		size = shardSize(len(plan.Points), fleet)
		if job != nil {
			if err := job.Append(cutRecord{T: "cut", Size: size}); err != nil {
				return nil, stats, err
			}
		}
	}
	shards := cutShards(len(plan.Points), size)
	stats.Shards = len(shards)
	if job != nil {
		if err := matchJournal(job, shards, journaled); err != nil {
			return nil, stats, err
		}
	}
	tracing.Record(ctx, "dsweep.partition", partStart, time.Now(),
		tracing.Int("shards", len(shards)))

	c := newCoord(ctx, plan, shards, fleet, opts)
	c.job = job
	// Pre-deliver the journaled shards: the merger buffers and re-emits them
	// in strict point order, so OnLine observers cannot tell a replayed line
	// from a live one.
	for _, s := range shards {
		if s.done {
			c.merge.deliver(s.lo, journaled[s.lo])
			stats.Replayed += s.hi - s.lo
		}
	}
	lines := c.run(&stats)
	stats.Elapsed = time.Since(start)
	root.SetAttr(tracing.Int("shards", stats.Shards), tracing.Int("retries", stats.Retries),
		tracing.Int("hedges", stats.Hedges), tracing.Int("deadWorkers", stats.DeadWorkers))
	err = c.fatal()
	if err == nil && len(lines) < len(plan.Points) {
		// Every shard completed, but the caller canceled before the merger
		// emitted them all.
		if err = ctx.Err(); err == nil {
			err = fmt.Errorf("dsweep: merged %d of %d points", len(lines), len(plan.Points))
		}
	}
	if err == nil && job != nil {
		err = job.MarkDone()
	}
	return lines, stats, err
}
