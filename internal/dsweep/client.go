package dsweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"bfdn/internal/obs/tracing"
)

// capacity is a worker's GET /capacity advertisement (the fields the
// coordinator uses; unknown fields are ignored so workers may grow theirs).
type capacity struct {
	MaxJobs      int  `json:"maxJobs"`
	SweepWorkers int  `json:"sweepWorkers"`
	MaxPoints    int  `json:"maxPoints"`
	Draining     bool `json:"draining"`
}

// workerState is one worker's live coordinator-side record. All mutable
// fields are guarded by the coordinator mutex.
type workerState struct {
	url string
	cap capacity
	// conc is how many shards the coordinator may keep in flight here.
	conc int
	// consecFails drives the dead-worker declaration; dead workers take no
	// further shards.
	consecFails int
	dead        bool
}

// probeFleet fetches every worker's capacity concurrently. Unreachable
// workers stay in the fleet with conservative defaults (they will fail fast
// at dispatch and be declared dead by the failure logic — a worker that is
// merely restarting gets its chance); draining workers are dropped. It
// fails only when nothing remains.
func probeFleet(ctx context.Context, urls []string) ([]*workerState, error) {
	states := make([]*workerState, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		u := strings.TrimRight(u, "/")
		if u == "" {
			return nil, fmt.Errorf("dsweep: empty worker URL at position %d", i)
		}
		w := &workerState{url: u, cap: capacity{MaxJobs: 1}}
		states[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, capacityTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodGet, w.url+"/capacity", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var c capacity
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&c) == nil {
				w.cap = c
			}
		}()
	}
	wg.Wait()

	fleet := make([]*workerState, 0, len(states))
	seen := make(map[string]bool, len(states))
	for _, w := range states {
		if seen[w.url] || w.cap.Draining {
			continue
		}
		seen[w.url] = true
		w.conc = inflightPerWorker
		if w.cap.MaxJobs > 0 {
			w.conc = min(w.conc, w.cap.MaxJobs)
		}
		fleet = append(fleet, w)
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("dsweep: all %d workers are draining", len(urls))
	}
	return fleet, nil
}

// attemptError classifies one failed shard dispatch for the retry logic.
type attemptError struct {
	err error
	// busy marks back-pressure (429 queue full, 503 draining): retry after
	// backoff without blaming the worker. fatal marks rejections retrying
	// cannot fix (HTTP 400: the plan itself is invalid for this fleet).
	busy  bool
	fatal bool
}

func (e *attemptError) Error() string { return e.err.Error() }

// serverLine mirrors the worker's JSONL stream records: point lines carry
// Report or Error; the final line has Done set.
type serverLine struct {
	Point  int             `json:"point"`
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
	Done   bool            `json:"done,omitempty"`
	Points int             `json:"points,omitempty"`
}

// runShard posts one shard's points to w and consumes the JSONL stream. The
// request's indexBase pins per-point seed derivation to the shard's global
// offset, so results are placement-independent. The returned lines carry
// global point indices and the worker's report bytes verbatim.
//
// Every deviation — non-200 status, unparseable line, out-of-order or
// missing points, a truncated stream (no done line) — is reported as an
// *attemptError so the coordinator can retry or fail over; a shard is never
// half-merged.
func runShard(ctx context.Context, w *workerState, plan Plan, s *shard) ([]Line, *attemptError) {
	body, err := json.Marshal(struct {
		Seed      int64             `json:"seed"`
		IndexBase int               `json:"indexBase"`
		TimeoutMS int64             `json:"timeoutMs"`
		Points    []json.RawMessage `json:"points"`
	}{plan.Seed, s.lo, shardTimeout.Milliseconds(), plan.Points[s.lo:s.hi]})
	if err != nil {
		return nil, &attemptError{err: fmt.Errorf("dsweep: marshal shard [%d,%d): %w", s.lo, s.hi, err), fatal: true}
	}
	actx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, &attemptError{err: err, fatal: true}
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the dispatch span so a traced worker continues this trace
	// instead of starting its own; without a span in ctx nothing is written.
	tracing.Inject(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): %w", w.url, s.lo, s.hi, err)}
	}
	defer resp.Body.Close()
	// The worker assigns the job ID at admission and echoes it on every
	// response it owns; attach it to the dispatch span so the coordinator's
	// trace and the worker's job logs join on one key.
	job := resp.Header.Get("X-Bfdnd-Job")
	if job != "" {
		tracing.FromContext(ctx).SetAttr(tracing.String("job", job))
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): worker busy (%d)", w.url, s.lo, s.hi, resp.StatusCode), busy: true}
	case http.StatusBadRequest:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s rejected shard [%d,%d): %s", w.url, s.lo, s.hi, bytes.TrimSpace(msg)), fatal: true}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): status %d: %s", w.url, s.lo, s.hi, resp.StatusCode, bytes.TrimSpace(msg))}
	}

	lines := make([]Line, 0, s.hi-s.lo)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawDone := false
	for sc.Scan() {
		var sl serverLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): malformed line %q: %w", w.url, s.lo, s.hi, sc.Text(), err)}
		}
		if sl.Done {
			sawDone = true
			continue
		}
		if sawDone {
			return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): point line after done line", w.url, s.lo, s.hi)}
		}
		if sl.Point != len(lines) {
			return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): line %d has point %d — stream out of order", w.url, s.lo, s.hi, len(lines), sl.Point)}
		}
		if sl.Error == "" && len(sl.Report) == 0 {
			return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): point %d has neither report nor error", w.url, s.lo, s.hi, sl.Point)}
		}
		lines = append(lines, Line{Point: s.lo + sl.Point, Report: sl.Report, Error: sl.Error})
	}
	if err := sc.Err(); err != nil {
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): stream read: %w", w.url, s.lo, s.hi, err)}
	}
	if !sawDone || len(lines) != s.hi-s.lo {
		return nil, &attemptError{err: fmt.Errorf("dsweep: %s shard [%d,%d): truncated stream (%d/%d points, done=%v)", w.url, s.lo, s.hi, len(lines), s.hi-s.lo, sawDone)}
	}
	return lines, nil
}
