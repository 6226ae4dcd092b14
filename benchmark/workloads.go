package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"bfdn"
	"bfdn/internal/server"
)

// workload is one named input set. setup generates the inputs from the
// seed, starts whatever servers and stores the workload needs, and runs one
// warm-up operation; it is timed as setup_s.
type workload struct {
	name  string
	setup func(c config, dir string, g *gate) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// loop runs the closed-loop client(s) until the deadline; jobs already
	// started when it passes are completed.
	loop(ctx context.Context, deadline time.Time, rec *recorder, g *gate)
	// verify checks what loop produced against in-process references.
	verify(g *gate)
	// layers returns the inputs the traced run drives each layer with.
	layers() layerInputs
	close()
}

var workloads = []workload{
	{"grid-local", setupGridLocal},
	{"daemon-mixed", setupDaemonMixed},
	{"fleet-dsweep", setupFleetDsweep},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var (
	syncAlgs    = []string{"bfdn", "bfdnl", "cte", "dfs", "levelwise", "treemining", "potential"}
	asyncAlgs   = []string{"bfdn", "potential"}
	latencies   = []string{"constant", "jitter:0.5"}
	fleetAlgs   = []string{"bfdn", "cte", "treemining"}
	mixFamilies = []string{"random", "random", "randbinary", "caterpillar"} // half random
)

// markInterval is the length of the intervals whose median throughput the
// daemon and fleet workloads report.
const markInterval = time.Second

// subSeed derives an independent seed for stream a, item b (splitmix64).
func subSeed(seed int64, a, b int) int64 {
	z := uint64(seed) ^ uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// algName resolves the empty algorithm name to the default, BFDN.
func algName(name string) string {
	if name == "" {
		return "bfdn"
	}
	return name
}

// speedsFor draws a fleet of k robots with speeds in {1, 2, 4}.
func speedsFor(rng *rand.Rand, k int) []float64 {
	s := make([]float64, k)
	for i := range s {
		s[i] = float64(int(1) << rng.Intn(3))
	}
	return s
}

// ---- grid-local ------------------------------------------------------------

// gridLocal runs the whole algorithm grid in process: every synchronous
// algorithm through bfdn.SweepStream and both asynchronous ones through
// bfdn.SweepAsyncStream, on a 50k-node random tree and a deep comb at two
// fleet sizes. One pass over the grid is one job and one interval.
type gridLocal struct {
	c       config
	trees   []genSpec
	fleets  [][]float64 // one fleet per k in gridKs
	sync    []bfdn.SweepPoint
	async   []bfdn.AsyncSweepPoint
	floors  []float64
	first   [32]byte // the first pass's results; later passes must repeat them
	hasRef  bool
	sample  []pointSpec
	asample []asyncSpec
}

func setupGridLocal(c config, _ string, g *gate) (instance, error) {
	s := c.size
	// The comb comes first: it does not depend on the seed, so the first
	// result of every pass comes from the same two points.
	w := &gridLocal{c: c, trees: []genSpec{
		{Family: "comb", N: s.gridCombN, Depth: s.gridCombD},
		{Family: "random", N: s.gridRandomN, Depth: s.gridRandomD, Seed: subSeed(c.seed, 1, 0)},
	}}
	rng := rand.New(rand.NewSource(subSeed(c.seed, 1, 1)))
	var cache treeCache
	var syncSpecs []pointSpec
	var asyncSpecs []asyncSpec
	for _, k := range s.gridKs {
		w.fleets = append(w.fleets, speedsFor(rng, k))
	}
	// Heaviest algorithms first (Potential, then the others in reverse
	// order), so the two workers finish a pass together.
	for i := len(syncAlgs) - 1; i >= 0; i-- {
		for _, ts := range w.trees {
			for _, k := range s.gridKs {
				syncSpecs = append(syncSpecs, pointSpec{genSpec: ts, K: k, Algorithm: syncAlgs[i]})
			}
		}
	}
	for i := len(asyncAlgs) - 1; i >= 0; i-- {
		for _, l := range latencies {
			for _, ts := range w.trees {
				for ki := range s.gridKs {
					asyncSpecs = append(asyncSpecs, asyncSpec{genSpec: ts, Speeds: w.fleets[ki], Algorithm: asyncAlgs[i], Latency: l})
				}
			}
		}
	}
	var err error
	if w.sync, err = cache.sweepPoints(syncSpecs); err != nil {
		return nil, err
	}
	if w.async, w.floors, err = cache.asyncPoints(asyncSpecs); err != nil {
		return nil, err
	}
	// The traced run's sweep, server and coordinator probes use the same
	// algorithm mix on trees a tenth the size.
	for _, p := range syncSpecs {
		p.N /= 10
		w.sample = append(w.sample, p)
	}
	for _, p := range asyncSpecs {
		p.N /= 10
		w.asample = append(w.asample, p)
	}
	// Warm-up: the BFDN points of both engines.
	var warmSync []bfdn.SweepPoint
	for _, p := range w.sync {
		if p.Algorithm == bfdn.BFDN {
			warmSync = append(warmSync, p)
		}
	}
	_, err = bfdn.SweepStream(context.Background(), warmSync, c.threads, c.seed,
		func(i int, r bfdn.SweepResult) { g.check(resultErr(r, warmSync[i])) })
	return w, err
}

// resultErr gates one in-process sweep result of point p.
func resultErr(r bfdn.SweepResult, p bfdn.SweepPoint) error {
	if r.Err != nil {
		return r.Err
	}
	return checkReport(r.Report, p.Algorithm.String())
}

func (w *gridLocal) loop(ctx context.Context, deadline time.Time, rec *recorder, g *gate) {
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		sp := rec.tr.start(rec.root, "grid.pass")
		reports := make([]bfdn.Report, len(w.sync))
		areports := make([]bfdn.AsyncReport, len(w.async))
		var once sync.Once
		var first time.Time
		mark := func() { once.Do(func() { first = time.Now() }) }
		submit := time.Now()

		ssp := rec.tr.start(sp, "sweep.stream")
		_, err := bfdn.SweepStream(ctx, w.sync, w.c.threads, w.c.seed, func(i int, r bfdn.SweepResult) {
			mark()
			if g.check(resultErr(r, w.sync[i])) {
				reports[i] = r.Report
				rec.points.Add(1)
			}
		})
		rec.tr.end(ssp)
		g.check(err)
		asp := rec.tr.start(sp, "sweep.async_stream")
		_, err = bfdn.SweepAsyncStream(ctx, w.async, w.c.threads, w.c.seed, func(i int, r bfdn.AsyncSweepResult) {
			mark()
			err := r.Err
			if err == nil {
				err = checkAsync(r.Report, w.floors[i])
			}
			if g.check(err) {
				areports[i] = r.Report
				rec.points.Add(1)
			}
		})
		rec.tr.end(asp)
		g.check(err)
		rec.tr.end(sp)
		rec.job(submit, first, time.Now())
		rec.mark()

		// Every pass runs the same inputs, so it must produce the same bytes.
		h, err := passHash(reports, areports)
		if g.check(err) {
			if !w.hasRef {
				w.first, w.hasRef = h, true
			}
			g.checkf(h == w.first, "grid pass %d differs from pass 0", pass)
		}
	}
}

func passHash(reports []bfdn.Report, areports []bfdn.AsyncReport) ([32]byte, error) {
	h, err := reportsHash(reports)
	if err != nil {
		return h, err
	}
	b, err := json.Marshal(areports)
	return sha256.Sum256(append(h[:], b...)), err
}

func (w *gridLocal) verify(*gate) {}

func (w *gridLocal) layers() layerInputs {
	return layerInputs{
		seed: w.c.seed, trees: w.trees, ks: w.c.size.gridKs, fleets: w.fleets,
		sweep: w.sample, async: w.asample,
		explore: exploreSpec{genSpec: w.trees[1], K: w.c.size.gridKs[len(w.c.size.gridKs)-1], Algorithm: "bfdn"},
	}
}

func (w *gridLocal) close() {}

// ---- daemon-mixed ----------------------------------------------------------

// daemonMixed drives one in-process bfdnd with a fresh job store through
// nproc closed-loop clients. Each client repeats a cycle of ten requests:
// six fresh sweeps, two resubmissions of its last finished sweep (every 4th
// sweep, answered from the journal), one async sweep and one explore.
type daemonMixed struct {
	c      config
	ts     *httptest.Server
	client *http.Client

	mu     sync.Mutex
	resubs []resubmission
}

// resubmission pairs a sweep with the hashes of its two responses.
type resubmission struct {
	body           sweepBody
	original, echo [32]byte
}

var daemonCycle = []string{"sweep", "sweep", "sweep", "resubmit", "sweep", "sweep", "sweep", "resubmit", "asyncsweep", "explore"}

func setupDaemonMixed(c config, dir string, g *gate) (instance, error) {
	js, err := bfdn.OpenJobStore(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{MaxJobs: c.threads, SweepWorkers: 1, Store: js})
	w := &daemonMixed{c: c, ts: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c.threads}}}
	// Warm-up: one sweep and one explore from a stream no client uses, of
	// the same size whatever the seed.
	rng := rand.New(rand.NewSource(subSeed(c.seed, 2, -1)))
	sweep, explore := w.genSweep(rng), w.genExplore(rng)
	sweep.Points = sweep.Points[:c.size.minPoints]
	explore.K, explore.Algorithm = 64, "bfdn"
	ctx := context.Background()
	var warm atomic.Int64
	if _, _, err := w.sweep(ctx, sweep, &warm); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.explore(ctx, explore, &warm); err != nil {
		w.close()
		return nil, err
	}
	g.pass(2)
	return w, nil
}

func (w *daemonMixed) genSweep(rng *rand.Rand) sweepBody {
	s := w.c.size
	b := sweepBody{Seed: rng.Int63(), Points: make([]pointSpec, s.minPoints+rng.Intn(s.maxPoints-s.minPoints+1))}
	for i := range b.Points {
		b.Points[i] = pointSpec{
			genSpec: genSpec{Family: mixFamilies[rng.Intn(len(mixFamilies))],
				N: s.minNodes + rng.Intn(s.maxNodes-s.minNodes+1), Depth: 5 + rng.Intn(36), Seed: rng.Int63()},
			K:         2 << rng.Intn(5),
			Algorithm: []string{"", "bfdn", "cte"}[rng.Intn(3)],
		}
	}
	return b
}

func (w *daemonMixed) genAsync(rng *rand.Rand) asyncBody {
	s := w.c.size
	b := asyncBody{Seed: rng.Int63(), Points: make([]asyncSpec, s.asyncPoints)}
	for i := range b.Points {
		b.Points[i] = asyncSpec{
			genSpec: genSpec{Family: "random", N: s.minNodes + rng.Intn(s.maxNodes-s.minNodes+1),
				Depth: 5 + rng.Intn(36), Seed: rng.Int63()},
			Speeds:    speedsFor(rng, 2<<rng.Intn(3)),
			Algorithm: asyncAlgs[rng.Intn(len(asyncAlgs))],
			Latency:   latencies[rng.Intn(len(latencies))],
		}
	}
	return b
}

func (w *daemonMixed) genExplore(rng *rand.Rand) exploreSpec {
	return exploreSpec{
		genSpec:   genSpec{Family: "random", N: w.c.size.exploreN, Depth: 40, Seed: rng.Int63()},
		K:         []int{16, 64}[rng.Intn(2)],
		Algorithm: []string{"bfdn", "cte"}[rng.Intn(2)],
	}
}

// sweep posts one sweep and verifies the stream, counting each verified
// point in done; it returns the hash of the point lines and when the first
// line arrived.
func (w *daemonMixed) sweep(ctx context.Context, b sweepBody, done *atomic.Int64) ([32]byte, time.Time, error) {
	resp, err := post(ctx, w.client, w.ts.URL+"/v1/sweep", b)
	if err != nil {
		return [32]byte{}, time.Time{}, err
	}
	defer resp.Body.Close()
	res, err := readStream(resp.Body, len(b.Points), func(i int, raw json.RawMessage) error {
		err := checkSyncLine(raw, algName(b.Points[i].Algorithm))
		if err == nil {
			done.Add(1)
		}
		return err
	})
	return res.hash, res.first, err
}

func (w *daemonMixed) asyncSweep(ctx context.Context, b asyncBody, done *atomic.Int64) (time.Time, error) {
	var cache treeCache
	_, floors, err := cache.asyncPoints(b.Points)
	if err != nil {
		return time.Time{}, err
	}
	resp, err := post(ctx, w.client, w.ts.URL+"/v1/asyncsweep", b)
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	res, err := readStream(resp.Body, len(b.Points), func(i int, raw json.RawMessage) error {
		var rep bfdn.AsyncReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return err
		}
		err := checkAsync(rep, floors[i])
		if err == nil {
			done.Add(1)
		}
		return err
	})
	return res.first, err
}

func (w *daemonMixed) explore(ctx context.Context, e exploreSpec, done *atomic.Int64) (time.Time, error) {
	resp, err := post(ctx, w.client, w.ts.URL+"/v1/explore", e)
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Report *bfdn.Report `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	first := time.Now()
	if err == nil && out.Report == nil {
		err = fmt.Errorf("explore: response without a report")
	}
	if err == nil {
		err = checkReport(*out.Report, e.Algorithm)
	}
	if err == nil {
		done.Add(1)
	}
	return first, err
}

func (w *daemonMixed) loop(ctx context.Context, deadline time.Time, rec *recorder, g *gate) {
	stop := make(chan struct{})
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		rec.markEvery(markInterval, stop)
	}()
	defer func() {
		close(stop)
		<-marked
	}()
	var wg sync.WaitGroup
	for c := 0; c < w.c.threads; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var last sweepBody
			var lastHash [32]byte
			for j := 0; j == 0 || time.Now().Before(deadline); j++ {
				rng := rand.New(rand.NewSource(subSeed(w.c.seed, 3+c, j)))
				kind := daemonCycle[j%len(daemonCycle)]
				sp := rec.tr.startKey(rec.root, "server.request", kind)
				submit := time.Now()
				var first time.Time
				var err error
				points := 1
				switch kind {
				case "sweep":
					last = w.genSweep(rng)
					points = len(last.Points)
					lastHash, first, err = w.sweep(ctx, last, &rec.points)
				case "resubmit":
					var h [32]byte
					points = len(last.Points)
					h, first, err = w.sweep(ctx, last, &rec.points)
					if err == nil {
						w.mu.Lock()
						w.resubs = append(w.resubs, resubmission{body: last, original: lastHash, echo: h})
						w.mu.Unlock()
					}
				case "asyncsweep":
					b := w.genAsync(rng)
					points = len(b.Points)
					first, err = w.asyncSweep(ctx, b, &rec.points)
				case "explore":
					first, err = w.explore(ctx, w.genExplore(rng), &rec.points)
				}
				end := time.Now()
				rec.tr.end(sp)
				if g.check(err) {
					rec.job(submit, first, end)
					g.pass(points)
				}
			}
		}(c)
	}
	wg.Wait()
}

// verify replays every resubmitted plan in process: the original response,
// the journal's answer and the reference must be byte-identical.
func (w *daemonMixed) verify(g *gate) {
	for _, r := range w.resubs {
		g.checkf(r.echo == r.original, "resubmitted sweep (seed %d) differs from its original", r.body.Seed)
		ref, err := w.reference(r.body)
		if g.check(err) {
			g.checkf(ref == r.original, "sweep (seed %d) differs from the in-process reference", r.body.Seed)
		}
	}
}

func (w *daemonMixed) reference(b sweepBody) ([32]byte, error) {
	var cache treeCache
	pts, err := cache.sweepPoints(b.Points)
	if err != nil {
		return [32]byte{}, err
	}
	reports, err := sweepReports(context.Background(), pts, w.c.threads, b.Seed)
	if err != nil {
		return [32]byte{}, err
	}
	return reportsHash(reports)
}

// sweepReports runs points in process and returns their reports in order.
func sweepReports(ctx context.Context, pts []bfdn.SweepPoint, workers int, seed int64, opts ...bfdn.EngineOption) ([]bfdn.Report, error) {
	res, _, err := bfdn.SweepContext(ctx, pts, workers, seed, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]bfdn.Report, len(res))
	for i, r := range res {
		if err := resultErr(r, pts[i]); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = r.Report
	}
	return out, nil
}

func (w *daemonMixed) layers() layerInputs {
	rng := rand.New(rand.NewSource(subSeed(w.c.seed, 3, 0)))
	sample := w.genSweep(rng)
	async := w.genAsync(rng)
	explore := w.genExplore(rng)
	return layerInputs{
		seed: w.c.seed, trees: []genSpec{explore.genSpec, sample.Points[0].genSpec},
		ks: []int{8, 64}, fleets: [][]float64{async.Points[0].Speeds},
		sweep: sample.Points, async: async.Points, explore: explore,
	}
}

func (w *daemonMixed) close() {
	w.ts.Close()
	w.client.CloseIdleConnections()
}

// ---- fleet-dsweep ----------------------------------------------------------

// fleetDsweep runs bfdn.SweepDistributed over two in-process bfdnd workers
// with a coordinator job store. Each job is one E14-style plan: three
// generated trees at every k in fleetKs under BFDN, CTE and Tree-Mining,
// with fresh tree seeds and sweep seed, so nothing replays.
type fleetDsweep struct {
	c       config
	workers []*httptest.Server
	urls    []string
	js      *bfdn.JobStore
	plans   []fleetPlan
}

type fleetPlan struct {
	body sweepBody
	hash [32]byte
}

func setupFleetDsweep(c config, dir string, g *gate) (instance, error) {
	js, err := bfdn.OpenJobStore(dir)
	if err != nil {
		return nil, err
	}
	w := &fleetDsweep{c: c, js: js}
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{MaxJobs: 1, SweepWorkers: 1}).Handler())
		w.workers = append(w.workers, ts)
		w.urls = append(w.urls, ts.URL)
	}
	var warm atomic.Int64
	if _, _, err := w.run(context.Background(), w.genPlan(-1), &warm, nil); err != nil {
		w.close()
		return nil, err
	}
	g.pass(1)
	return w, nil
}

func (w *fleetDsweep) genPlan(j int) sweepBody {
	rng := rand.New(rand.NewSource(subSeed(w.c.seed, 4, j)))
	n := w.c.size.fleetN
	trees := []genSpec{
		{Family: "random", N: n, Depth: 12, Seed: rng.Int63()},
		{Family: "random", N: n, Depth: 60, Seed: rng.Int63()},
		{Family: "uneven", N: n, Depth: 40},
	}
	b := sweepBody{Seed: rng.Int63()}
	for _, t := range trees {
		for _, k := range w.c.size.fleetKs {
			for _, a := range fleetAlgs {
				b.Points = append(b.Points, pointSpec{genSpec: t, K: k, Algorithm: a})
			}
		}
	}
	return b
}

// run executes one plan on the fleet, journaled in the coordinator store,
// counting each merged line in done as it streams, and gates every line. It
// returns the hash of the merged JSONL.
func (w *fleetDsweep) run(ctx context.Context, b sweepBody, done *atomic.Int64, onFirst func()) ([32]byte, int, error) {
	specs, err := distSpecs(b.Points)
	if err != nil {
		return [32]byte{}, 0, err
	}
	var once sync.Once
	opts := []bfdn.DistOption{bfdn.WithDistStore(w.js), bfdn.WithDistOnLine(func(bfdn.DistLine) {
		if onFirst != nil {
			once.Do(onFirst)
		}
		done.Add(1)
	})}
	lines, _, err := bfdn.SweepDistributed(ctx, specs, w.urls, b.Seed, opts...)
	if err != nil {
		return [32]byte{}, 0, err
	}
	if len(lines) != len(specs) {
		return [32]byte{}, 0, fmt.Errorf("coordinator merged %d of %d lines", len(lines), len(specs))
	}
	for _, l := range lines {
		if l.Error != "" {
			return [32]byte{}, 0, fmt.Errorf("point %d: %s", l.Point, l.Error)
		}
		if err := checkSyncLine(l.Report, algName(b.Points[l.Point].Algorithm)); err != nil {
			return [32]byte{}, 0, fmt.Errorf("point %d: %w", l.Point, err)
		}
	}
	h, err := distHash(lines)
	return h, len(lines), err
}

func (w *fleetDsweep) loop(ctx context.Context, deadline time.Time, rec *recorder, g *gate) {
	stop := make(chan struct{})
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		rec.markEvery(markInterval, stop)
	}()
	defer func() {
		close(stop)
		<-marked
	}()
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		b := w.genPlan(j)
		sp := rec.tr.start(rec.root, "dsweep.plan")
		submit := time.Now()
		var first time.Time
		h, n, err := w.run(ctx, b, &rec.points, func() { first = time.Now() })
		end := time.Now()
		rec.tr.end(sp)
		if g.check(err) {
			rec.job(submit, first, end)
			g.pass(n)
			w.plans = append(w.plans, fleetPlan{body: b, hash: h})
		}
	}
}

// verify compares every merged plan with an in-process run of the same
// plan, serialized in the coordinator's line shape.
func (w *fleetDsweep) verify(g *gate) {
	for _, p := range w.plans {
		var cache treeCache
		pts, err := cache.sweepPoints(p.body.Points)
		if !g.check(err) {
			continue
		}
		reports, err := sweepReports(context.Background(), pts, w.c.threads, p.body.Seed)
		if !g.check(err) {
			continue
		}
		lines, err := localDistLines(reports)
		if !g.check(err) {
			continue
		}
		h, err := distHash(lines)
		if g.check(err) {
			g.checkf(h == p.hash, "merged plan (seed %d) differs from the in-process reference", p.body.Seed)
		}
	}
}

func (w *fleetDsweep) layers() layerInputs {
	b := w.genPlan(0)
	var trees []genSpec
	for _, p := range b.Points {
		if len(trees) == 0 || trees[len(trees)-1] != p.genSpec {
			trees = append(trees, p.genSpec)
		}
	}
	ks := w.c.size.fleetKs
	return layerInputs{
		seed: w.c.seed, trees: trees, ks: []int{ks[0], ks[len(ks)/2], ks[len(ks)-1]},
		fleets: [][]float64{{1, 1, 2, 4}}, sweep: b.Points,
		async:       []asyncSpec{{genSpec: trees[0], Speeds: []float64{1, 1, 2, 4}, Algorithm: "bfdn", Latency: "constant"}},
		explore:     exploreSpec{genSpec: trees[0], K: ks[len(ks)-1], Algorithm: "bfdn"},
		distJournal: true,
	}
}

func (w *fleetDsweep) close() {
	for _, ts := range w.workers {
		ts.Close()
	}
}
