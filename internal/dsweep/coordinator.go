package dsweep

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bfdn/internal/jobstore"
	"bfdn/internal/obs/tracing"
)

// shard is one contiguous range [lo,hi) of the plan's points: the unit of
// dispatch, retry, failover and hedging. All mutable fields are guarded by
// the coordinator mutex.
type shard struct {
	lo, hi int
	// attempts counts failure dispatches, busyTries busy ones; each has its
	// own budget (maxAttempts / maxBusyRetries).
	attempts  int
	busyTries int
	// excluded holds workers that failed this shard; the queue skips them
	// so a retry lands elsewhere (failover). When every live worker is
	// excluded the set resets — better a second chance than a stall.
	excluded map[string]bool
	// runners holds workers currently executing the shard, inflight their
	// count (> 1 only while hedged); done marks the winning completion.
	runners  map[string]bool
	inflight int
	hedged   bool
	done     bool
	// cancels aborts in-flight attempt contexts once a copy wins, so a
	// hedge loser stops burning a worker.
	cancels []context.CancelFunc
}

// shardSize picks the shard size for cutting n points into contiguous
// shards against the probed fleet. The target is oversub shards per fleet
// dispatch slot — enough queue depth for work stealing to absorb speed
// differences and failover to re-spread a dead worker's load — capped by
// maxShardPoints and by the smallest maxPoints any worker advertises.
// Resumable runs journal this size and reuse it on resume, so the cut
// stays a pure function of the plan even if the fleet changes.
func shardSize(n int, fleet []*workerState) int {
	slots, minMax := 0, 0
	for _, w := range fleet {
		slots += w.conc
		if w.cap.MaxPoints > 0 && (minMax == 0 || w.cap.MaxPoints < minMax) {
			minMax = w.cap.MaxPoints
		}
	}
	size := min((n+oversub*slots-1)/(oversub*slots), maxShardPoints)
	if minMax > 0 && size > minMax {
		size = minMax
	}
	if size < 1 {
		size = 1
	}
	return size
}

// cutShards tiles [0,n) into contiguous shards of the given size.
func cutShards(n, size int) []*shard {
	shards := make([]*shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		shards = append(shards, &shard{lo: lo, hi: min(lo+size, n),
			excluded: map[string]bool{}, runners: map[string]bool{}})
	}
	return shards
}

// coord is the run state: a work queue drained by per-worker goroutines,
// with a condition variable tying dispatch, retry and completion together.
type coord struct {
	ctx    context.Context
	cancel context.CancelFunc
	plan   Plan
	opts   Options
	fleet  []*workerState
	shards []*shard
	merge  *merger
	// job, when non-nil, is the run's persistent journal: every winning
	// shard is appended (and fsynced) before its lines reach the merger.
	job *jobstore.Job

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*shard
	remaining int
	live      int
	err       error

	retries, failovers, hedges, deadWorkers int
	shardsBy                                map[string]int
}

func newCoord(ctx context.Context, plan Plan, shards []*shard, fleet []*workerState, opts Options) *coord {
	cctx, cancel := context.WithCancel(ctx)
	// Shards already marked done (replayed from a resumed job's journal)
	// never enter the queue; only the rest count toward completion.
	queue := make([]*shard, 0, len(shards))
	for _, s := range shards {
		if !s.done {
			queue = append(queue, s)
		}
	}
	c := &coord{
		ctx: cctx, cancel: cancel, plan: plan, opts: opts,
		fleet: fleet, shards: shards,
		merge:     newMerger(cctx, opts.OnLine),
		queue:     queue,
		remaining: len(queue),
		live:      len(fleet),
		shardsBy:  map[string]int{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// run drives the fleet until the plan completes or a fatal error stops it,
// then folds the counters into stats and returns the merged lines.
func (c *coord) run(stats *Stats) []Line {
	defer c.cancel()
	var wg sync.WaitGroup
	for _, w := range c.fleet {
		for i := 0; i < w.conc; i++ {
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				c.workerLoop(w)
			}(w)
		}
	}

	// A canceled caller context must abort in-flight worker requests even
	// while every goroutine is parked in cond.Wait.
	stop := make(chan struct{})
	go func() {
		select {
		case <-c.ctx.Done():
			c.mu.Lock()
			if c.err == nil && c.remaining > 0 {
				c.err = c.ctx.Err()
			}
			c.mu.Unlock()
			c.cond.Broadcast()
		case <-stop:
		}
	}()
	wg.Wait()
	close(stop)

	c.mu.Lock()
	stats.Retries = c.retries
	stats.Failovers = c.failovers
	stats.Hedges = c.hedges
	stats.DeadWorkers = c.deadWorkers
	for u, n := range c.shardsBy {
		stats.ShardsByWorker[u] = n
	}
	c.mu.Unlock()
	return c.merge.lines()
}

// fatal reports the run's terminal error, nil when the plan completed.
func (c *coord) fatal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// workerLoop pulls shards for w until the run ends or w is declared dead.
// After a failed or busy attempt the loop backs off (exponential with
// jitter) before pulling again, so a struggling worker does not hammer
// itself while the others keep draining the queue.
func (c *coord) workerLoop(w *workerState) {
	for {
		s := c.next(w)
		if s == nil {
			return
		}
		actx, acancel := context.WithCancel(c.ctx)
		c.mu.Lock()
		s.cancels = append(s.cancels, acancel)
		// A second concurrent copy of the shard means this dispatch is the
		// hedge duplicate; the flag only decorates the span.
		hedge := s.inflight > 1
		c.mu.Unlock()
		// One span per attempt, all siblings under dsweep.run: retries and
		// hedge duplicates of a shard are separate spans on one trace, which
		// is what makes a straggler's timeline legible after the fact.
		sctx, span := tracing.Start(actx, "dsweep.dispatch",
			tracing.String("worker", w.url), tracing.Int("lo", s.lo),
			tracing.Int("hi", s.hi))
		if hedge {
			span.SetAttr(tracing.String("hedge", "true"))
		}
		lines, aerr := runShard(sctx, w, c.plan, s)
		span.SetAttr(tracing.String("outcome", attemptOutcome(aerr)))
		span.End()
		acancel()
		if backoff := c.complete(w, s, lines, aerr); backoff > 0 {
			select {
			case <-c.ctx.Done():
				return
			case <-time.After(backoff):
			}
		}
	}
}

// attemptOutcome names an attempt's result for span attributes.
func attemptOutcome(aerr *attemptError) string {
	switch {
	case aerr == nil:
		return "ok"
	case aerr.busy:
		return "busy"
	case aerr.fatal:
		return "fatal"
	default:
		return "error"
	}
}

// next blocks until there is a shard for w — from the queue, or (with
// hedging on) a straggler worth duplicating — or the run is over for w
// (plan drained, fatal error, worker dead, context canceled).
func (c *coord) next(w *workerState) *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.err != nil || c.remaining == 0 || w.dead || c.ctx.Err() != nil {
			return nil
		}
		for i, s := range c.queue {
			if !s.excluded[w.url] {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				c.startLocked(s, w)
				return s
			}
		}
		if c.unstickLocked() {
			continue
		}
		if c.opts.Hedge && len(c.queue) == 0 {
			if s := c.hedgeCandidateLocked(w); s != nil {
				s.hedged = true
				c.hedges++
				c.startLocked(s, w)
				return s
			}
		}
		c.cond.Wait()
	}
}

func (c *coord) startLocked(s *shard, w *workerState) {
	s.inflight++
	s.runners[w.url] = true
}

// unstickLocked clears the exclusion set of any queued shard that every
// live worker has failed: a retry anywhere beats a permanent stall. It
// reports whether anything changed.
func (c *coord) unstickLocked() bool {
	changed := false
	for _, s := range c.queue {
		if len(s.excluded) == 0 {
			continue
		}
		stuck := true
		for _, w := range c.fleet {
			if !w.dead && !s.excluded[w.url] {
				stuck = false
				break
			}
		}
		if stuck {
			s.excluded = map[string]bool{}
			changed = true
		}
	}
	return changed
}

// hedgeCandidateLocked picks the oldest in-flight shard w could duplicate:
// not yet hedged, not already running on w, not previously failed by w.
func (c *coord) hedgeCandidateLocked(w *workerState) *shard {
	for _, s := range c.shards {
		if !s.done && s.inflight > 0 && !s.hedged && !s.runners[w.url] && !s.excluded[w.url] {
			return s
		}
	}
	return nil
}

// complete settles one attempt and returns how long the worker should back
// off before its next pull (0 = none). Exactly one attempt per shard wins;
// late duplicates (hedge losers, attempts canceled after the win) are
// discarded without side effects on retry budgets or worker health.
func (c *coord) complete(w *workerState, s *shard, lines []Line, aerr *attemptError) time.Duration {
	c.mu.Lock()
	s.inflight--
	delete(s.runners, w.url)

	if s.done || c.err != nil {
		c.mu.Unlock()
		c.cond.Broadcast()
		return 0
	}

	if aerr == nil {
		s.done = true
		c.remaining--
		w.consecFails = 0
		c.shardsBy[w.url]++
		if len(s.excluded) > 0 {
			// The shard failed elsewhere and completed here: a failover.
			c.failovers++
		}
		for _, cf := range s.cancels {
			cf()
		}
		s.cancels = nil
		c.mu.Unlock()
		// Journal before merge: once a line is visible to OnLine it must be
		// durable, or a crash after emission could resume with a hole. The
		// append fsyncs; failure to journal is fatal for the run (delivering
		// unjournaled lines would break the invariant).
		if c.job != nil {
			if err := c.job.Append(shardRecord{T: "shard", Lo: s.lo, Lines: lines}); err != nil {
				c.mu.Lock()
				c.failLocked(fmt.Errorf("dsweep: journal shard [%d,%d): %w", s.lo, s.hi, err))
				c.mu.Unlock()
				c.cond.Broadcast()
				return 0
			}
		}
		// Merging outside the coordinator lock keeps a slow OnLine callback
		// from stalling dispatch; the merger has its own ordering lock.
		mergeStart := time.Now()
		c.merge.deliver(s.lo, lines)
		tracing.Record(c.ctx, "dsweep.merge", mergeStart, time.Now(),
			tracing.Int("lo", s.lo), tracing.Int("lines", len(lines)))
		c.cond.Broadcast()
		return 0
	}

	// The whole run was canceled: the attempt's error is just the echo.
	if c.ctx.Err() != nil {
		if c.err == nil {
			c.err = c.ctx.Err()
		}
		c.mu.Unlock()
		c.cond.Broadcast()
		return 0
	}

	var backoff time.Duration
	switch {
	case aerr.fatal:
		c.failLocked(aerr.err)
	case aerr.busy:
		s.busyTries++
		c.retries++
		if s.busyTries > maxBusyRetries {
			c.failLocked(fmt.Errorf("dsweep: shard [%d,%d): still busy after %d retries: %w", s.lo, s.hi, s.busyTries-1, aerr.err))
		} else {
			c.requeueLocked(s)
			backoff = backoffDur(c.opts, s.busyTries)
		}
	default:
		s.attempts++
		c.retries++
		s.excluded[w.url] = true
		w.consecFails++
		if w.consecFails >= c.opts.workerFailLimit && !w.dead {
			w.dead = true
			c.live--
			c.deadWorkers++
		}
		switch {
		case c.live == 0:
			c.failLocked(fmt.Errorf("dsweep: all workers failed; last error: %w", aerr.err))
		case s.attempts >= maxAttempts:
			c.failLocked(fmt.Errorf("dsweep: shard [%d,%d) failed %d times, giving up: %w", s.lo, s.hi, s.attempts, aerr.err))
		default:
			c.requeueLocked(s)
			backoff = backoffDur(c.opts, s.attempts)
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	return backoff
}

// requeueLocked puts a failed shard back on the queue unless a hedged copy
// is still running it (that copy will requeue if it fails too).
func (c *coord) requeueLocked(s *shard) {
	if s.inflight > 0 {
		return
	}
	c.queue = append(c.queue, s)
	c.unstickLocked()
}

// failLocked records the run's first fatal error and aborts every in-flight
// request via the shared context.
func (c *coord) failLocked(err error) {
	if c.err == nil {
		c.err = err
		c.cancel()
	}
}

// backoffDur is exponential backoff with jitter: attempt n sleeps in
// [d/2, d] for d = min(retryBase·2ⁿ⁻¹, retryMax). Jitter decorrelates
// retries across workers; it never influences results, only timing.
func backoffDur(opts Options, attempt int) time.Duration {
	d := opts.retryMax
	if attempt-1 < 20 {
		if b := opts.retryBase << uint(attempt-1); b > 0 && b < d {
			d = b
		}
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
