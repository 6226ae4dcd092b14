package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"bfdn"
)

// exploreRequest is the POST /v1/explore body: one synchronous sweep point,
// whose tree is either generated (family/n/depth/treeSeed) or given
// explicitly as a parent array; the algorithm names match
// bfdn.ParseAlgorithm (empty selects BFDN).
type exploreRequest struct {
	sweepPointSpec
	Parents []int32 `json:"parents"`

	// TimeoutMS overrides the server's default per-request deadline
	// (capped at the server's maximum).
	TimeoutMS int64 `json:"timeoutMs"`
}

type exploreResponse struct {
	Algorithm string       `json:"algorithm"`
	N         int          `json:"n"`
	Depth     int          `json:"depth"`
	MaxDegree int          `json:"maxDegree"`
	K         int          `json:"k"`
	Report    *bfdn.Report `json:"report"`
	ElapsedMS float64      `json:"elapsedMs"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "need k ≥ 1")
		return
	}
	if err := s.checkSize(req.Depth, req.K); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	alg, err := bfdn.ParseAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := []bfdn.Option{bfdn.WithAlgorithm(alg)}
	if req.Ell != 0 {
		opts = append(opts, bfdn.WithEll(req.Ell))
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// The job context carries the job span (when tracing is on), so the
	// simulation below it shows up as child spans of this job.
	s.runJob(ctx, w, r, "explore", func(ctx context.Context) {
		t, err := s.buildTree(req.Family, req.N, req.Depth, req.TreeSeed, req.Parents)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Stream live progress into the registry: one round and an explored-
		// node delta per simulated round. The observer runs on the single
		// simulating goroutine, so prevExplored needs no synchronization.
		prevExplored := 0
		runOpts := append(opts, bfdn.WithProgress(func(p bfdn.Progress) {
			s.m.simRounds.Inc()
			if d := p.Explored - prevExplored; d > 0 {
				s.m.simExplored.Add(uint64(d))
				prevExplored = p.Explored
			}
		}))
		start := time.Now()
		rep, err := bfdn.ExploreContext(ctx, t, req.K, runOpts...)
		if err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, exploreResponse{
			Algorithm: alg.String(),
			N:         t.N(),
			Depth:     t.Depth(),
			MaxDegree: t.MaxDegree(),
			K:         req.K,
			Report:    rep,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		})
	})
}

// writeJobError maps a simulation error onto an HTTP status: deadline → 504,
// client gone → nothing (the connection is dead), anything else → 400 (the
// facade only fails on invalid parameters or algorithm contract violations).
func writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the run finished")
	case errors.Is(err, context.Canceled):
		// Client disconnected; nobody is reading the response.
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}
