package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"bfdn"
)

// jobsResponse is the GET /v1/jobs body.
type jobsResponse struct {
	Jobs []bfdn.JobInfo `json:"jobs"`
}

// handleJobs lists the persistent job store: one row per job with its
// content-addressed ID, kind, done flag and journal length.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "job store is not configured (start bfdnd with -store)")
		return
	}
	jobs, err := s.cfg.Store.Jobs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if jobs == nil {
		jobs = []bfdn.JobInfo{}
	}
	writeJSON(w, http.StatusOK, jobsResponse{Jobs: jobs})
}

// resumeRequest is the POST /v1/resume body: the job to resume (an ID from
// GET /v1/jobs), plus an optional timeout for the resumed run.
type resumeRequest struct {
	Job       string `json:"job"`
	TimeoutMS int64  `json:"timeoutMs"`
}

// handleResume re-drives a stored sweep job from its journal: points already
// journaled stream back immediately, the rest are simulated and journaled,
// and the combined stream is byte-identical to an uninterrupted run of the
// original request (the crash-recovery procedure of OPERATIONS.md §6).
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "job store is not configured (start bfdnd with -store)")
		return
	}
	var req resumeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Job == "" {
		writeError(w, http.StatusBadRequest, "need a job ID (see GET /v1/jobs)")
		return
	}
	job, err := s.cfg.Store.Store().Get(req.Job)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}

	// Explore jobs resume by re-running the checkpointed exploration and
	// dsweep jobs by re-running the coordinator; only sweep kinds re-drive
	// over HTTP.
	k, ok := sweepKinds[job.Kind()]
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("job %s has kind %q: explore jobs resume by re-running the exploration with bfdn.WithCheckpoint and dsweep jobs by re-running the coordinator, not over HTTP", req.Job, job.Kind()))
		return
	}
	k.resumeJob(s, w, r, req.Job, job.Plan(), req.TimeoutMS)
}

// decodePlan strictly decodes a manifest's plan bytes: unknown fields mean
// the plan was not written by this daemon's canonical re-marshal.
func decodePlan(plan []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(plan))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleRegister and handleWorkers expose the fleet registry when one is
// configured: workers heartbeat here (POST /v1/register) and coordinators
// read the live fleet (GET /v1/workers) instead of being handed a static
// -workers list.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		writeError(w, http.StatusNotFound, "fleet registry is not configured (start bfdnd with -registry)")
		return
	}
	s.cfg.Registry.ServeRegister(w, r)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		writeError(w, http.StatusNotFound, "fleet registry is not configured (start bfdnd with -registry)")
		return
	}
	s.cfg.Registry.ServeWorkers(w, r)
}
