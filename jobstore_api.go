package bfdn

// This file is the facade over internal/jobstore (DESIGN.md S30): durable,
// resumable runs. A JobStore journals every completed sweep point to an
// append-only WAL and checkpoints long explorations with atomic snapshots;
// re-running the same plan against the same store resumes from what
// survived, and the byte-identity contract (per-point seeds derived from
// the point's original global index, algorithm Snapshot/Restore hooks)
// makes the merged output indistinguishable from an uninterrupted run.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"bfdn/internal/jobstore"
	"bfdn/internal/sweep"
)

// JobStore is a persistent, crash-safe store of resumable jobs: sweeps,
// asynchronous sweeps, and checkpointed explorations. Jobs are
// content-addressed by their plan (jobstore.PlanID), so submitting the same
// work to the same store is the same job — the resume procedure is simply
// "run it again".
type JobStore struct {
	s *jobstore.Store
}

// OpenJobStore opens (creating if needed) a job store rooted at dir.
func OpenJobStore(dir string) (*JobStore, error) {
	s, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &JobStore{s: s}, nil
}

// JobInfo summarizes one stored job.
type JobInfo = jobstore.Info

// Jobs lists the stored jobs, sorted by ID. A job whose journal does not
// replay is listed with the replay error in its row's Error.
func (js *JobStore) Jobs() ([]JobInfo, error) { return js.s.Jobs() }

// Store exposes the underlying internal store for in-module consumers (the
// bfdnd daemon shares one store between its HTTP handlers and the sweep
// facade).
func (js *JobStore) Store() *jobstore.Store { return js.s }

// planRef is the canonical JSON plan stored in a job's manifest when the
// caller did not supply plan bytes of its own: a fingerprint over everything
// that determines the run's output.
type planRef struct {
	Fingerprint string `json:"fingerprint"`
}

// fingerprintPlan folds h into manifest-ready JSON plan bytes.
func fingerprintPlan(sum []byte) []byte {
	b, err := json.Marshal(planRef{Fingerprint: fmt.Sprintf("%x", sum[:16])})
	if err != nil {
		panic(err) // unreachable: planRef always marshals
	}
	return b
}

// hashTree writes the tree's parent array — its full identity — into h.
func hashTree(h io.Writer, t *Tree) {
	parents := t.t.Parents()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(parents)))
	h.Write(buf[:])
	for _, p := range parents {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
}

// sweepPlanBytes derives the default plan identity of a sweep: base seed,
// index base, and every point's tree, k, algorithm and ℓ.
func sweepPlanBytes(points []SweepPoint, baseSeed, indexBase uint64) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "sweep\x00%d\x00%d\x00%d\x00", baseSeed, indexBase, len(points))
	for _, p := range points {
		hashTree(h, p.Tree)
		fmt.Fprintf(h, "%d\x00%d\x00%d\x00", p.K, int(p.Algorithm), p.Ell)
	}
	return fingerprintPlan(h.Sum(nil))
}

// asyncSweepPlanBytes is sweepPlanBytes for continuous-time grids.
func asyncSweepPlanBytes(points []AsyncSweepPoint, baseSeed, indexBase uint64) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "asyncsweep\x00%d\x00%d\x00%d\x00", baseSeed, indexBase, len(points))
	for _, p := range points {
		hashTree(h, p.Tree)
		fmt.Fprintf(h, "%d\x00", len(p.Speeds))
		for _, s := range p.Speeds {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
			h.Write(buf[:])
		}
		fmt.Fprintf(h, "%d\x00%s\x00", int(p.Algorithm), p.Latency)
	}
	return fingerprintPlan(h.Sum(nil))
}

// explorePlanBytes derives the plan identity of a checkpointed exploration:
// the tree, k, and every config knob that changes the run. The 1 and 0
// stand where the plan once held BFDN's policy (always LeastLoaded) and a
// seed no option set; keeping them keeps every job ID stable.
func explorePlanBytes(t *Tree, k int, cfg config) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "explore\x00")
	hashTree(h, t)
	fmt.Fprintf(h, "%d\x00%d\x00%d\x00%d\x00%v\x00%d\x00",
		k, int(cfg.alg), cfg.ell, 1, cfg.shortcut, 0)
	return fingerprintPlan(h.Sum(nil))
}

// pointRecord is one WAL entry of a journaled sweep of either engine: the
// settled point's global index and its report. Only successes are
// journaled — failed points re-run deterministically on resume.
type pointRecord[Rep any] struct {
	T      string `json:"t"`
	I      int    `json:"i"`
	Report *Rep   `json:"report"`
}

// reportRecord is the terminal WAL entry of a checkpointed exploration.
type reportRecord struct {
	T      string  `json:"t"`
	Report *Report `json:"report"`
}

// sweepEngine is what one engine contributes to the shared sweep pipeline:
// its job kind and default plan identity, its validated points, the pool
// call that runs them, and the report of point i once it has run.
type sweepEngine[P any, R sweep.Settled, Rep any] struct {
	kind   string
	plan   func(baseSeed, indexBase uint64) []byte
	points []P
	run    func(context.Context, []P, sweep.Options, func(R)) ([]R, sweep.Stats)
	report func(i int, r R) Rep
}

// stream is the one sweep pipeline behind SweepStream and SweepAsyncStream:
// it resolves the engine options, runs the points, and hands every point to
// deliver exactly once, as it settles. With a job store attached, cached
// points are replayed from the WAL (in index order, before any fresh
// result), missing points run with their original global seed indices,
// and every fresh success is journaled before it is delivered; the job is
// marked done once every point has succeeded.
func (e sweepEngine[P, R, Rep]) stream(ctx context.Context, workers int, seed int64,
	engineOpts []EngineOption, deliver func(i int, rep Rep, err error)) (SweepStats, error) {
	cfg := engineConfig{opt: sweep.Options{Workers: workers, BaseSeed: uint64(seed)}}
	for _, eo := range engineOpts {
		eo(&cfg)
	}
	pts, opt := e.points, cfg.opt
	var job *jobstore.Job
	var origIdx []int // global index of pts[j] once a job store picks the points to run
	if cfg.store != nil {
		plan := cfg.plan
		if plan == nil {
			plan = e.plan(opt.BaseSeed, opt.IndexBase)
		}
		var err error
		if job, _, err = cfg.store.s.OpenOrCreate(e.kind, plan); err != nil {
			return SweepStats{}, err
		}
		cached, err := replayPoints[Rep](job, len(e.points))
		if err != nil {
			return SweepStats{}, err
		}
		pts = nil
		for i := range e.points {
			if rep, ok := cached[i]; ok {
				deliver(i, rep, nil)
				continue
			}
			pts = append(pts, e.points[i])
			origIdx = append(origIdx, i)
			opt.SeedIndices = append(opt.SeedIndices, opt.IndexBase+uint64(i))
		}
		if len(pts) == 0 {
			return SweepStats{}, job.MarkDone()
		}
	}
	var mu sync.Mutex
	var journalErr error
	_, stats := e.run(ctx, pts, opt, func(r R) {
		i, err := r.Settled()
		if origIdx != nil {
			i = origIdx[i]
		}
		var rep Rep
		if err == nil {
			rep = e.report(i, r)
			if job != nil {
				if jerr := journalPoint(job, i, rep); jerr != nil {
					mu.Lock()
					if journalErr == nil {
						journalErr = jerr
					}
					mu.Unlock()
				}
			}
		}
		deliver(i, rep, err)
	})
	if journalErr != nil {
		return convertSweepStats(stats), fmt.Errorf("bfdn: job %s: journal append: %w", job.ID(), journalErr)
	}
	if job != nil && stats.Errors == 0 {
		if err := job.MarkDone(); err != nil {
			return convertSweepStats(stats), err
		}
	}
	return convertSweepStats(stats), nil
}

// replayPoints reads a sweep job's journal: the report of every point it
// holds, by global index.
func replayPoints[Rep any](job *jobstore.Job, n int) (map[int]Rep, error) {
	raws, err := job.Replay()
	if err != nil {
		return nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
	}
	cached := make(map[int]Rep)
	for _, raw := range raws {
		var rec pointRecord[Rep]
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("bfdn: job %s: corrupt journal record: %w", job.ID(), err)
		}
		if rec.T == "point" && rec.I >= 0 && rec.I < n && rec.Report != nil {
			cached[rec.I] = *rec.Report
		}
	}
	return cached, nil
}

// journalPoint appends point i's report to the job's WAL. It takes the
// report by value so that only journaled points move it to the heap.
func journalPoint[Rep any](job *jobstore.Job, i int, rep Rep) error {
	return job.Append(pointRecord[Rep]{T: "point", I: i, Report: &rep})
}

// journaledReport replays the report a finished checkpointed exploration
// journaled, so a done job answers without simulating.
func journaledReport(job *jobstore.Job) (*Report, error) {
	raws, err := job.Replay()
	if err != nil {
		return nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
	}
	for i := len(raws) - 1; i >= 0; i-- {
		var rec reportRecord
		if err := json.Unmarshal(raws[i], &rec); err == nil && rec.T == "report" && rec.Report != nil {
			return rec.Report, nil
		}
	}
	return nil, fmt.Errorf("bfdn: job %s: done but no report in journal", job.ID())
}
