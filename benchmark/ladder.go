package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bfdn"
	"bfdn/internal/async"
	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/levelwise"
	"bfdn/internal/offline"
	"bfdn/internal/potential"
	"bfdn/internal/recursive"
	"bfdn/internal/server"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
)

// layerInputs are a workload's inputs for the traced run. Trees are
// generated through the tree layer, explored by every synchronous algorithm
// at every k and by both asynchronous ones with every fleet; sweep, async
// and explore feed the sweep, job-store, server and coordinator probes.
type layerInputs struct {
	seed    int64
	trees   []genSpec
	ks      []int
	fleets  [][]float64
	sweep   []pointSpec
	async   []asyncSpec
	explore exploreSpec
	// distJournal selects the coordinator's job store as the journaled
	// layer (fleet-dsweep) instead of the facade's.
	distJournal bool
}

// runLadder times the benchmark's calls into each layer on in and adds the
// per-layer metrics to m. Every call's output goes through the gate.
func runLadder(ctx context.Context, c config, in layerInputs, dir string, tr *tracer, g *gate, m map[string]metric) error {
	root := tr.start(0, "ladder")
	defer tr.end(root)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// tree: generate the workload's trees.
	trees := make([]*tree.Tree, len(in.trees))
	for i, s := range in.trees {
		sp := tr.startKey(root, "tree.generate", s.Family)
		t, err := tree.Generate(tree.Family(s.Family), s.N, s.Depth, rand.New(rand.NewSource(s.Seed)))
		tr.end(sp)
		if err != nil {
			return err
		}
		trees[i] = t
	}
	put("tree.generate_ms", "ms", tr.totalMs("tree.generate", ""))

	// sim and the algorithms: once plain, once instrumented; the difference
	// is the tracing overhead.
	plainSim, _ := simPass(ctx, trees, in.ks, nil, 0, g)
	plainAsync, _ := asyncPass(ctx, trees, in.fleets, in.seed, nil, 0, g)
	tracedSim, counts := simPass(ctx, trees, in.ks, tr, root, g)
	tracedAsync, events := asyncPass(ctx, trees, in.fleets, in.seed, tr, root, g)
	for _, a := range syncAlgs {
		cnt := counts[a]
		put("sim.step_ms."+a, "ms", tr.selfMs("sim.run", a))
		put("sim.rounds."+a, "count", float64(cnt.rounds))
		put("sim.idle_robot_rounds."+a, "count", float64(cnt.idle))
		put("sim.redundant_moves."+a, "count", float64(cnt.redundant))
		put("alg."+a+".decide_ms", "ms", tr.totalMs("alg.select_moves", a))
	}
	put("alg.potential_over_cte", "ratio", tr.totalMs("sim.run", "potential")/tr.totalMs("sim.run", "cte"))
	for _, a := range asyncAlgs {
		put("async."+a+".run_ms", "ms", tr.totalMs("async.run", a))
		put("async."+a+".decide_ms", "ms", tr.totalMs("async.decide", a))
		put("async."+a+".events", "count", float64(events[a]))
	}
	plain, traced := plainSim+plainAsync, tracedSim+tracedAsync
	put("trace.overhead_pct", "%", 100*(traced-plain).Seconds()/plain.Seconds())

	var cache treeCache
	pts, err := cache.sweepPoints(in.sweep)
	if err != nil {
		return err
	}
	ref, err := sweepReports(ctx, pts, 1, in.seed)
	if err != nil {
		return err
	}
	refHash, err := reportsHash(ref)
	if err != nil {
		return err
	}
	facade := func(key string, workers int, pts []bfdn.SweepPoint, opts ...bfdn.EngineOption) (time.Duration, bfdn.SweepStats) {
		sp := tr.startKey(root, "sweep.stream", key)
		t0 := time.Now()
		reports := make([]bfdn.Report, len(pts))
		stats, err := bfdn.SweepStream(ctx, pts, workers, in.seed, func(i int, r bfdn.SweepResult) {
			if g.check(resultErr(r, pts[i])) {
				reports[i] = r.Report
			}
		}, opts...)
		d := time.Since(t0)
		tr.end(sp)
		if g.check(err) && len(reports) == len(ref) {
			h, err := reportsHash(reports)
			if g.check(err) {
				g.checkf(h == refHash, "%s sweep differs from the reference sweep", key)
			}
		}
		return d, stats
	}

	// sweep: utilization at nproc workers, the harness cost over direct
	// sim runs of the same points, and marginal allocations per point.
	_, stats := facade("workers", c.threads, pts)
	put("sweep.utilization", "ratio", stats.Utilization)
	var facadeMs, directMs []float64
	for r := 0; r < c.size.ladderReps; r++ {
		d, _ := facade("serial", 1, pts)
		facadeMs = append(facadeMs, ms(d))
		directMs = append(directMs, ms(directPass(ctx, in.sweep, tr, root, g)))
	}
	put("sweep.harness_us_per_point", "us", 1e3*(median(facadeMs)-median(directMs))/float64(len(pts)))
	allocs := func(pts []bfdn.SweepPoint) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := bfdn.SweepStream(ctx, pts, 1, in.seed, func(_ int, r bfdn.SweepResult) {})
		runtime.ReadMemStats(&after)
		g.check(err)
		return after.Mallocs - before.Mallocs
	}
	one, two := allocs(pts), allocs(append(append([]bfdn.SweepPoint(nil), pts...), pts...))
	put("sweep.allocs_per_point", "count", (float64(two)-float64(one))/float64(len(pts)))

	// jobstore: the same sweep journaled, then answered from the journal.
	if !in.distJournal {
		var appends atomic.Int64
		var journalMs, replayMs []float64
		replayed := 0
		for r := 0; r < c.size.ladderReps; r++ {
			js, err := bfdn.OpenJobStore(filepath.Join(dir, fmt.Sprint("store", r)))
			if err != nil {
				return err
			}
			appends.Store(0)
			js.Store().SetHooks(func() { appends.Add(1) }, nil)
			d, _ := facade("journaled", 1, pts, bfdn.WithJobStore(js))
			journalMs = append(journalMs, ms(d))
			d, st := facade("replay", 1, pts, bfdn.WithJobStore(js))
			replayMs = append(replayMs, ms(d))
			replayed = len(pts) - st.Points
		}
		n := float64(appends.Load())
		put("jobstore.wal_appends", "count", n)
		put("jobstore.append_us", "us", 1e3*(median(journalMs)-median(facadeMs))/n)
		put("jobstore.replay_ms", "ms", median(replayMs))
		put("jobstore.replayed_points", "count", float64(replayed))
	}

	if err := serverLadder(ctx, c, in, refHash, median(facadeMs), tr, root, g, put); err != nil {
		return err
	}
	return distLadder(ctx, c, in, ref, dir, tr, root, g, put)
}

// newSyncAlg builds the named synchronous algorithm and its guarantee, as
// the facade does, so the benchmark can drive sim directly.
func newSyncAlg(name string, t *tree.Tree, k int) (sim.Algorithm, float64, error) {
	n, d := t.N(), t.Depth()
	switch name {
	case "bfdn":
		return core.NewAlgorithm(k, core.WithPolicy(core.LeastLoaded)), bounds.Theorem1(n, d, k, t.MaxDegree()), nil
	case "bfdnl":
		a, err := recursive.NewBFDNL(k, 2)
		if err != nil {
			return nil, 0, err
		}
		return a, bounds.Theorem10(n, d, k, t.MaxDegree(), 2), nil
	case "cte":
		return cte.New(k), bounds.GuaranteeCTE(float64(n), float64(d), k), nil
	case "dfs":
		return &offline.DFS{}, float64(2 * (n - 1)), nil
	case "levelwise":
		return levelwise.New(k), levelwise.Bound(n, d, k), nil
	case "treemining":
		return treemining.New(k), treemining.Bound(n, d, k), nil
	case "potential":
		return potential.New(k), potential.Bound(n, d, k), nil
	}
	return nil, 0, fmt.Errorf("unknown algorithm %q", name)
}

// timedAlg times every SelectMoves call of the algorithm it wraps.
type timedAlg struct {
	a     sim.Algorithm
	d     time.Duration
	calls int64
}

func (t *timedAlg) SelectMoves(v *sim.View, prev []sim.ExploreEvent) ([]sim.Move, error) {
	t0 := time.Now()
	m, err := t.a.SelectMoves(v, prev)
	t.d += time.Since(t0)
	t.calls++
	return m, err
}

// timedAsync times every Decide call of the algorithm it wraps.
type timedAsync struct {
	async.Algorithm
	d     time.Duration
	calls int64
}

func (t *timedAsync) Decide(v async.View, i int) (async.Move, error) {
	t0 := time.Now()
	m, err := t.Algorithm.Decide(v, i)
	t.d += time.Since(t0)
	t.calls++
	return m, err
}

// ledger is one algorithm's bound-ledger totals: k·T = Moves + idle and
// Moves = 2(n−1) + redundant.
type ledger struct{ rounds, idle, redundant int64 }

// simPass runs every synchronous algorithm on every tree at every k through
// sim.RunRecycledContext on one reused world. With a tracer each run is a
// sim.run span whose alg.select_moves child is the algorithm's self time.
func simPass(ctx context.Context, trees []*tree.Tree, ks []int, tr *tracer, parent int, g *gate) (time.Duration, map[string]*ledger) {
	counts := map[string]*ledger{}
	var w *sim.World
	t0 := time.Now()
	for _, t := range trees {
		for _, k := range ks {
			for _, name := range syncAlgs {
				a, bound, err := newSyncAlg(name, t, k)
				if err == nil {
					if w == nil {
						w, err = sim.NewWorld(t, k)
					} else {
						err = w.Reset(t, k)
					}
				}
				if !g.check(err) {
					continue
				}
				var ta *timedAlg
				if tr != nil {
					ta = &timedAlg{a: a}
					a = ta
				}
				sp := tr.startKey(parent, "sim.run", name)
				res, err := sim.RunRecycledContext(ctx, w, a, 0, make([]int64, k))
				if ta != nil {
					tr.aggregate(sp, "alg.select_moves", name, ta.d, ta.calls)
				}
				tr.end(sp)
				if err == nil {
					err = checkReport(bfdn.Report{Rounds: res.Rounds, Bound: bound,
						FullyExplored: res.FullyExplored, AllAtRoot: res.AllAtRoot}, name)
				}
				if !g.check(err) {
					continue
				}
				l := counts[name]
				if l == nil {
					l = &ledger{}
					counts[name] = l
				}
				l.rounds += int64(res.Rounds)
				l.idle += int64(k)*int64(res.Rounds) - res.Moves
				l.redundant += res.Moves - 2*int64(t.N()-1)
			}
		}
	}
	return time.Since(t0), counts
}

// asyncPass runs both asynchronous algorithms under both latency models on
// every tree with every fleet, each on a fresh async.Engine.
func asyncPass(ctx context.Context, trees []*tree.Tree, fleets [][]float64, seed int64, tr *tracer, parent int, g *gate) (time.Duration, map[string]int64) {
	events := map[string]int64{}
	t0 := time.Now()
	for _, t := range trees {
		for _, speeds := range fleets {
			for _, name := range asyncAlgs {
				for _, l := range latencies {
					a, err := async.NewNamedAlgorithm(name)
					if !g.check(err) {
						continue
					}
					lat, err := async.ParseLatency(l)
					if !g.check(err) {
						continue
					}
					var ta *timedAsync
					if tr != nil {
						ta = &timedAsync{Algorithm: a}
						a = ta
					}
					e, err := async.NewEngine(t, speeds, async.WithAlgorithm(a), async.WithLatency(lat), async.WithSeed(seed))
					if !g.check(err) {
						continue
					}
					sp := tr.startKey(parent, "async.run", name)
					res, err := e.RunContext(ctx, 0)
					if ta != nil {
						tr.aggregate(sp, "async.decide", name, ta.d, ta.calls)
					}
					tr.end(sp)
					if err == nil {
						err = checkAsync(bfdn.AsyncReport{Makespan: res.Makespan, FullyExplored: res.FullyExplored,
							AllAtRoot: res.AllAtRoot}, async.LowerBound(t.N(), t.Depth(), speeds))
					}
					if g.check(err) {
						events[name] += res.Events
					}
				}
			}
		}
	}
	return time.Since(t0), events
}

// directPass runs the sweep sample straight through sim on one reused
// world, with every tree generated and every algorithm constructed before
// the clock starts: the baseline the facade sweep is compared with.
func directPass(ctx context.Context, specs []pointSpec, tr *tracer, parent int, g *gate) time.Duration {
	trees := map[genSpec]*tree.Tree{}
	algs := make([]sim.Algorithm, len(specs))
	for i, s := range specs {
		t := trees[s.genSpec]
		if t == nil {
			var err error
			t, err = tree.Generate(tree.Family(s.Family), s.N, s.Depth, rand.New(rand.NewSource(s.Seed)))
			if !g.check(err) {
				return 0
			}
			trees[s.genSpec] = t
		}
		a, _, err := newSyncAlg(algName(s.Algorithm), t, s.K)
		if !g.check(err) {
			return 0
		}
		algs[i] = a
	}
	sp := tr.start(parent, "sim.direct")
	defer tr.end(sp)
	var w *sim.World
	t0 := time.Now()
	for i, s := range specs {
		t := trees[s.genSpec]
		var err error
		if w == nil {
			w, err = sim.NewWorld(t, s.K)
		} else {
			err = w.Reset(t, s.K)
		}
		if err == nil {
			_, err = sim.RunRecycledContext(ctx, w, algs[i], 0, make([]int64, s.K))
		}
		g.check(err)
	}
	return time.Since(t0)
}

// serverLadder times requests of each kind against an in-process bfdnd
// (no job store) and compares the sweep stream with the in-process sweep.
func serverLadder(ctx context.Context, c config, in layerInputs, refHash [32]byte, inProcessMs float64,
	tr *tracer, parent int, g *gate, put func(string, string, float64)) error {
	srv := server.New(server.Config{MaxJobs: c.threads, SweepWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var cache treeCache
	_, floors, err := cache.asyncPoints(in.async)
	if err != nil {
		return err
	}
	request := func(kind string, body any, points int, check func(int, json.RawMessage) error) int {
		sp := tr.startKey(parent, "server.request", kind)
		defer tr.end(sp)
		resp, err := post(ctx, client, ts.URL+"/v1/"+kind, body)
		if !g.check(err) {
			return 0
		}
		defer resp.Body.Close()
		if kind == "explore" {
			var out struct {
				Report bfdn.Report `json:"report"`
			}
			err := json.NewDecoder(resp.Body).Decode(&out)
			if err == nil {
				err = checkReport(out.Report, in.explore.Algorithm)
			}
			g.check(err)
			return 0
		}
		res, err := readStream(resp.Body, points, check)
		if g.check(err) && kind == "sweep" {
			g.checkf(res.hash == refHash, "server sweep stream differs from the in-process sweep")
		}
		return res.bytes
	}
	bytes := 0
	for r := 0; r < c.size.ladderReps; r++ {
		bytes += request("sweep", sweepBody{Seed: in.seed, Points: in.sweep}, len(in.sweep),
			func(i int, raw json.RawMessage) error { return checkSyncLine(raw, algName(in.sweep[i].Algorithm)) })
		request("asyncsweep", asyncBody{Seed: in.seed, Points: in.async}, len(in.async),
			func(i int, raw json.RawMessage) error {
				var rep bfdn.AsyncReport
				if err := json.Unmarshal(raw, &rep); err != nil {
					return err
				}
				return checkAsync(rep, floors[i])
			})
		request("explore", in.explore, 1, nil)
	}
	for _, kind := range []string{"sweep", "asyncsweep", "explore"} {
		put("server.request_ms_p50."+kind, "ms", median(tr.durationsMs("server.request", kind)))
	}
	put("server.overhead_ms_per_request", "ms", median(tr.durationsMs("server.request", "sweep"))-inProcessMs)
	put("server.bytes_per_point", "B", float64(bytes)/float64(c.size.ladderReps*len(in.sweep)))
	rejected, err := scrape(ctx, client, ts.URL, "bfdnd_jobs_rejected_total")
	if err != nil {
		return err
	}
	put("server.rejected", "count", rejected)
	return nil
}

// distLadder runs the sweep sample on two in-process bfdnd workers through
// bfdn.SweepDistributed and compares it with the in-process sweep at the
// same thread count. On fleet-dsweep it also prices the coordinator's
// job store.
func distLadder(ctx context.Context, c config, in layerInputs, ref []bfdn.Report, dir string,
	tr *tracer, parent int, g *gate, put func(string, string, float64)) error {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{MaxJobs: 1, SweepWorkers: 1}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	busy := func() float64 {
		var sum float64
		for _, u := range urls {
			v, err := scrape(ctx, client, u, "bfdnd_sweep_busy_seconds_total")
			g.check(err)
			sum += v
		}
		return sum
	}
	specs, err := distSpecs(in.sweep)
	if err != nil {
		return err
	}
	lines, err := localDistLines(ref)
	if err != nil {
		return err
	}
	want, err := distHash(lines)
	if err != nil {
		return err
	}
	dist := func(key string, opts ...bfdn.DistOption) (time.Duration, bfdn.DistStats) {
		sp := tr.startKey(parent, "dsweep.run", key)
		t0 := time.Now()
		lines, stats, err := bfdn.SweepDistributed(ctx, specs, urls, in.seed, opts...)
		d := time.Since(t0)
		tr.end(sp)
		if g.check(err) {
			h, err := distHash(lines)
			if g.check(err) {
				g.checkf(h == want, "%s distributed sweep differs from the in-process sweep", key)
			}
		}
		return d, stats
	}

	var cache treeCache
	pts, err := cache.sweepPoints(in.sweep)
	if err != nil {
		return err
	}
	var distMs, localMs []float64
	var stats bfdn.DistStats
	busy0 := busy()
	for r := 0; r < c.size.ladderReps; r++ {
		var d time.Duration
		d, stats = dist("plain")
		distMs = append(distMs, ms(d))
	}
	busy1 := busy()
	for r := 0; r < c.size.ladderReps; r++ {
		sp := tr.startKey(parent, "sweep.stream", "dsweep-local")
		t0 := time.Now()
		_, err := sweepReports(ctx, pts, 2, in.seed)
		localMs = append(localMs, ms(time.Since(t0)))
		tr.end(sp)
		g.check(err)
	}
	put("dsweep.shards", "count", float64(stats.Shards))
	put("dsweep.retries", "count", float64(stats.Retries))
	put("dsweep.hedges", "count", float64(stats.Hedges))
	put("dsweep.overhead_ms", "ms", median(distMs)-median(localMs))
	var total float64
	for _, d := range distMs {
		total += d / 1e3
	}
	put("dsweep.worker_busy_share", "ratio", (busy1-busy0)/(2*total))

	if !in.distJournal {
		return nil
	}
	var appends atomic.Int64
	var journalMs, replayMs []float64
	replayed := 0
	for r := 0; r < c.size.ladderReps; r++ {
		js, err := bfdn.OpenJobStore(filepath.Join(dir, fmt.Sprint("coordinator", r)))
		if err != nil {
			return err
		}
		appends.Store(0)
		js.Store().SetHooks(func() { appends.Add(1) }, nil)
		d, _ := dist("journaled", bfdn.WithDistStore(js))
		journalMs = append(journalMs, ms(d))
		d, st := dist("replay", bfdn.WithDistStore(js))
		replayMs = append(replayMs, ms(d))
		replayed = st.Replayed
	}
	n := float64(appends.Load())
	put("jobstore.wal_appends", "count", n)
	put("jobstore.append_us", "us", 1e3*(median(journalMs)-median(distMs))/n)
	put("jobstore.replay_ms", "ms", median(replayMs))
	put("jobstore.replayed_points", "count", float64(replayed))
	return nil
}
