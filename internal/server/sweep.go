package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"bfdn"
	"bfdn/internal/jobstore"
	"bfdn/internal/sweep"
)

// sweepPlan is the canonical job-identity form of a sweep request, S being
// the engine's point schema: the fields that determine the run's output, in
// fixed order, with the timeout excluded (operational, not identity). The
// bytes of json.Marshal(plan) are hashed into the job ID and stored
// verbatim in the job manifest, so POST /v1/resume can reconstruct the
// request from the manifest alone — and so job identity is stable across
// processes and bfdnd restarts.
type sweepPlan[S any] struct {
	// Seed scrambles the engine's deterministic per-point randomness.
	Seed int64 `json:"seed"`
	// IndexBase offsets per-point seed derivation: point i of this request
	// draws its randomness from (seed, indexBase+i). A distributed
	// coordinator (internal/dsweep) sets it to the shard's first global
	// index so sharded results match the unsharded run exactly.
	IndexBase int64 `json:"indexBase"`
	Points    []S   `json:"points"`
}

// sweepRequest is the POST /v1/sweep and /v1/asyncsweep body: a grid of
// independent runs executed on the kind's engine and streamed back as
// JSONL, one line per point in point order, as points complete.
type sweepRequest[S any] struct {
	sweepPlan[S]
	// TimeoutMS bounds the whole sweep (default/cap as for /v1/explore).
	TimeoutMS int64 `json:"timeoutMs"`
}

// treeSpec names a generated tree; identical specs generate identical
// trees, so one sweep materializes each distinct spec once.
type treeSpec struct {
	Family   string `json:"family"`
	N        int    `json:"n"`
	Depth    int    `json:"depth"`
	TreeSeed int64  `json:"treeSeed"`
}

// sweepPointSpec is one synchronous run: a generated tree explored by K
// robots with the named algorithm (ℓ for bfdnl).
type sweepPointSpec struct {
	treeSpec
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	Ell       int    `json:"ell"`
}

// asyncSweepPointSpec is one continuous-time run: a generated tree, a fleet
// of per-robot speeds, a decision strategy, and a latency model.
type asyncSweepPointSpec struct {
	treeSpec
	// Speeds is the fleet: speeds[i] > 0 is robot i's edge-traversal rate.
	// The fleet size takes the place of the synchronous k.
	Speeds []float64 `json:"speeds"`
	// Algorithm names the strategy ("bfdn" or "potential"; empty → "bfdn").
	Algorithm string `json:"algorithm"`
	// Latency names the traversal-time model ("constant" or empty,
	// "jitter:F", "pareto:A").
	Latency string `json:"latency"`
}

// pointSpec is a sweep point's schema: size reports the tree depth and the
// robot count it asks for, which the daemon bounds before it builds
// anything.
type pointSpec interface {
	size() (depth, robots int)
}

func (p sweepPointSpec) size() (int, int) { return p.Depth, p.K }

func (p asyncSweepPointSpec) size() (int, int) { return p.Depth, len(p.Speeds) }

// sweepLine is one streamed JSONL record. Point lines carry exactly one of
// Report/Error; the final line has Point = -1, Done = true, and the engine
// stats.
type sweepLine[Rep any] struct {
	Point  int    `json:"point"`
	Report *Rep   `json:"report,omitempty"`
	Error  string `json:"error,omitempty"`

	Done         bool    `json:"done,omitempty"`
	Points       int     `json:"points,omitempty"`
	PointsPerSec float64 `json:"pointsPerSec,omitempty"`
	Workers      int     `json:"workers,omitempty"`
}

// sweepKind is one engine's sweep endpoint: S is its point schema, P and
// Res the facade's point and result types, Rep its report. Everything else
// — admission, plan identity, journaling, the ordered stream — is shared.
type sweepKind[S pointSpec, P, Res, Rep any] struct {
	// name is the endpoint (POST /v1/<name>) and the stored job kind.
	name string
	// recorder selects the engine's metric families.
	recorder func(*metrics) *sweep.Recorder
	// point validates one spec and materializes it on the tree that tree
	// builds (or shares) for its spec.
	point func(spec S, tree func(treeSpec) (*bfdn.Tree, error)) (P, error)
	// stream is the facade's streaming run.
	stream func(context.Context, []P, int, int64, func(int, Res), ...bfdn.EngineOption) (bfdn.SweepStats, error)
	// result splits a facade result into its report and error.
	result func(Res) (Rep, error)
}

// syncSweep is POST /v1/sweep: grids of synchronous runs.
var syncSweep = sweepKind[sweepPointSpec, bfdn.SweepPoint, bfdn.SweepResult, bfdn.Report]{
	name:     "sweep",
	recorder: func(m *metrics) *sweep.Recorder { return m.sweep },
	point: func(p sweepPointSpec, tree func(treeSpec) (*bfdn.Tree, error)) (bfdn.SweepPoint, error) {
		if p.K < 1 {
			return bfdn.SweepPoint{}, errors.New("need k ≥ 1")
		}
		alg, err := bfdn.ParseAlgorithm(p.Algorithm)
		if err != nil {
			return bfdn.SweepPoint{}, err
		}
		t, err := tree(p.treeSpec)
		return bfdn.SweepPoint{Tree: t, K: p.K, Algorithm: alg, Ell: p.Ell}, err
	},
	stream: bfdn.SweepStream,
	result: func(r bfdn.SweepResult) (bfdn.Report, error) { return r.Report, r.Err },
}

// asyncSweep is POST /v1/asyncsweep: grids of continuous-time runs (the
// engine behind bfdn.SweepAsyncStream) under the same seed/indexBase
// contract, fed to the bfdnd_async_sweep_* families so the synchronous ones
// stay untouched.
var asyncSweep = sweepKind[asyncSweepPointSpec, bfdn.AsyncSweepPoint, bfdn.AsyncSweepResult, bfdn.AsyncReport]{
	name:     "asyncsweep",
	recorder: func(m *metrics) *sweep.Recorder { return m.asyncSweep },
	point: func(p asyncSweepPointSpec, tree func(treeSpec) (*bfdn.Tree, error)) (bfdn.AsyncSweepPoint, error) {
		if len(p.Speeds) == 0 {
			return bfdn.AsyncSweepPoint{}, errors.New("need at least one robot speed")
		}
		alg, err := bfdn.ParseAsyncAlgorithm(p.Algorithm)
		if err != nil {
			return bfdn.AsyncSweepPoint{}, err
		}
		t, err := tree(p.treeSpec)
		return bfdn.AsyncSweepPoint{Tree: t, Speeds: p.Speeds, Algorithm: alg, Latency: p.Latency}, err
	},
	stream: bfdn.SweepAsyncStream,
	result: func(r bfdn.AsyncSweepResult) (bfdn.AsyncReport, error) { return r.Report, r.Err },
}

// resumable is the kind-independent face POST /v1/resume needs.
type resumable interface {
	resumeJob(s *Server, w http.ResponseWriter, r *http.Request, id string, plan []byte, timeoutMS int64)
}

// sweepKinds maps a stored job kind to the endpoint that re-drives it.
var sweepKinds = map[string]resumable{syncSweep.name: syncSweep, asyncSweep.name: asyncSweep}

// handler serves POST /v1/<name>.
func (k sweepKind[S, P, Res, Rep]) handler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req sweepRequest[S]
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(req.Points) == 0 {
			writeError(w, http.StatusBadRequest, "need at least one point")
			return
		}
		if len(req.Points) > s.cfg.MaxPoints {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("sweep has %d points, limit is %d", len(req.Points), s.cfg.MaxPoints))
			return
		}
		if req.IndexBase < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("need indexBase ≥ 0, got %d", req.IndexBase))
			return
		}
		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()
		// The job context carries the job span (when tracing is on), so the
		// engine's sweep.worker/sweep.point spans land under this job.
		s.runJob(ctx, w, r, k.name, func(ctx context.Context) {
			k.job(s, ctx, w, req.sweepPlan)
		})
	}
}

// resumeJob is this kind's arm of POST /v1/resume: the manifest's plan
// bytes reconstruct the original request. A strict decode rejects
// manifests this daemon cannot re-drive — facade-created jobs whose plan
// is an opaque fingerprint — and the re-marshaled plan must hash to the
// job's own ID, or the run would journal into a different job.
func (k sweepKind[S, P, Res, Rep]) resumeJob(s *Server, w http.ResponseWriter, r *http.Request, id string, plan []byte, timeoutMS int64) {
	var p sweepPlan[S]
	if err := decodePlan(plan, &p); err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("job %s has no resumable plan (%v); only jobs created over HTTP can resume here", id, err))
		return
	}
	if b, err := json.Marshal(p); err != nil || jobstore.PlanID(k.name, b) != id {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("job %s has a plan this daemon does not write canonically; only jobs created over HTTP can resume here", id))
		return
	}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	s.runJob(ctx, w, r, "resume", func(ctx context.Context) {
		s.m.jsResumes.Inc()
		k.job(s, ctx, w, p)
	})
}

// job is the body of a sweep job, shared by POST /v1/<name> and its arm of
// POST /v1/resume. It runs with the execution slot held.
func (k sweepKind[S, P, Res, Rep]) job(s *Server, ctx context.Context, w http.ResponseWriter, plan sweepPlan[S]) {
	for i, spec := range plan.Points {
		if err := s.checkSize(spec.size()); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
	}
	// Materialize the grid. Sweeps routinely reuse one tree spec across
	// many points; trees are immutable, so identical specs share one.
	trees := make(map[treeSpec]*bfdn.Tree)
	tree := func(ts treeSpec) (*bfdn.Tree, error) {
		if t, ok := trees[ts]; ok {
			return t, nil
		}
		t, err := s.buildTree(ts.Family, ts.N, ts.Depth, ts.TreeSeed, nil)
		if err == nil {
			trees[ts] = t
		}
		return t, err
	}
	points := make([]P, len(plan.Points))
	for i, spec := range plan.Points {
		p, err := k.point(spec, tree)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
		points[i] = p
	}

	// The engine recorder folds this sweep's point-latency histogram and
	// totals into the server registry when the run completes; totals stay
	// monotonically consistent under any number of concurrent sweeps.
	opts := []bfdn.EngineOption{
		bfdn.WithSweepRecorder(k.recorder(s.m)),
		bfdn.WithSeedIndexBase(uint64(plan.IndexBase)),
	}
	if s.cfg.Store != nil {
		// The canonical re-marshaled plan keys the persistent job, so
		// resubmitting the same sweep resumes its journal instead of
		// recomputing finished points.
		b, err := json.Marshal(plan)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		opts = append(opts, bfdn.WithJobStorePlan(s.cfg.Store, b))
	}

	// The stream emits lines strictly in point order (orderedStream), so
	// the response is byte-identical at any worker count. Headers are set
	// now but only flushed on the first body write, so a validation
	// failure inside the facade (before any point has run) can still turn
	// into a clean 400 below.
	stream := newOrderedStream(w)
	stats, err := k.stream(ctx, points, s.cfg.SweepWorkers, plan.Seed, func(i int, res Res) {
		line := sweepLine[Rep]{Point: i}
		if rep, err := k.result(res); err != nil {
			line.Error = err.Error()
		} else {
			line.Report = &rep
		}
		stream.emit(i, line)
	}, opts...)
	if err != nil {
		// The facade validates every point before running anything, so on
		// error no line has been written and the status is still ours.
		w.Header().Del("X-Accel-Buffering")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cfg.Store != nil && stats.Points < len(points) {
		// Journal hits: stats counts simulated points only, so the gap is
		// what the store answered.
		s.m.jsReplayed.Add(uint64(len(points) - stats.Points))
	}
	stream.finish(sweepLine[Rep]{Point: -1, Done: true, Points: stats.Points,
		PointsPerSec: stats.PointsPerSec, Workers: stats.Workers})
}
