package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bfdn"
)

// genSpec names a generated tree; identical specs generate identical trees
// in the benchmark, the daemon and the coordinator.
type genSpec struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Depth  int    `json:"depth"`
	Seed   int64  `json:"treeSeed"`
}

// pointSpec is one synchronous sweep point in the daemon's request schema.
type pointSpec struct {
	genSpec
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
}

// asyncSpec is one continuous-time sweep point in the daemon's schema.
type asyncSpec struct {
	genSpec
	Speeds    []float64 `json:"speeds"`
	Algorithm string    `json:"algorithm"`
	Latency   string    `json:"latency"`
}

// exploreSpec is a POST /v1/explore body.
type exploreSpec struct {
	genSpec
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
}

type sweepBody struct {
	Seed   int64       `json:"seed"`
	Points []pointSpec `json:"points"`
}

type asyncBody struct {
	Seed   int64       `json:"seed"`
	Points []asyncSpec `json:"points"`
}

// treeCache generates each named tree once. It is not safe for concurrent
// use.
type treeCache struct {
	m map[genSpec]*bfdn.Tree
}

func (c *treeCache) get(s genSpec) (*bfdn.Tree, error) {
	if t, ok := c.m[s]; ok {
		return t, nil
	}
	t, err := bfdn.GenerateTree(bfdn.Family(s.Family), s.N, s.Depth, s.Seed)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = map[genSpec]*bfdn.Tree{}
	}
	c.m[s] = t
	return t, nil
}

// sweepPoints materializes specs for the in-process facade.
func (c *treeCache) sweepPoints(specs []pointSpec) ([]bfdn.SweepPoint, error) {
	pts := make([]bfdn.SweepPoint, len(specs))
	for i, s := range specs {
		t, err := c.get(s.genSpec)
		if err != nil {
			return nil, err
		}
		alg, err := bfdn.ParseAlgorithm(s.Algorithm)
		if err != nil {
			return nil, err
		}
		pts[i] = bfdn.SweepPoint{Tree: t, K: s.K, Algorithm: alg}
	}
	return pts, nil
}

// asyncPoints materializes async specs and their continuous-time floors.
func (c *treeCache) asyncPoints(specs []asyncSpec) ([]bfdn.AsyncSweepPoint, []float64, error) {
	pts := make([]bfdn.AsyncSweepPoint, len(specs))
	floors := make([]float64, len(specs))
	for i, s := range specs {
		t, err := c.get(s.genSpec)
		if err != nil {
			return nil, nil, err
		}
		alg, err := bfdn.ParseAsyncAlgorithm(s.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		pts[i] = bfdn.AsyncSweepPoint{Tree: t, Speeds: s.Speeds, Algorithm: alg, Latency: s.Latency}
		floors[i] = bfdn.AsyncLowerBound(t.N(), t.Depth(), s.Speeds)
	}
	return pts, floors, nil
}

func distSpecs(specs []pointSpec) ([]bfdn.SweepSpec, error) {
	out := make([]bfdn.SweepSpec, len(specs))
	for i, s := range specs {
		alg, err := bfdn.ParseAlgorithm(s.Algorithm)
		if err != nil {
			return nil, err
		}
		out[i] = bfdn.SweepSpec{Family: bfdn.Family(s.Family), N: s.N, Depth: s.Depth,
			TreeSeed: s.Seed, K: s.K, Algorithm: alg}
	}
	return out, nil
}

// checkReport is the synchronous gate for a run of the named algorithm: the
// tree is explored, every robot is back at the root, and the run is within
// its guarantee wherever the report's Bound is a hard one. Two are not:
// CTE's is the Appendix A form n/ln k + D, which drops the constants of an
// O(n/log k + D) guarantee, and Potential's 2n/k + 3D² + 2D + 2 sets the
// constants of an O(D²) term by measurement (on grid-local's 50k-node tree
// at k = 8 Potential takes 28,968 rounds against 17,382).
func checkReport(r bfdn.Report, alg string) error {
	switch {
	case !r.FullyExplored:
		return fmt.Errorf("%s: tree not fully explored", alg)
	case !r.AllAtRoot:
		return fmt.Errorf("%s: robots not all back at the root", alg)
	case alg != "cte" && alg != "potential" && r.Bound > 0 && float64(r.Rounds) > r.Bound+1e-9:
		return fmt.Errorf("%s: %d rounds exceed the bound %.1f", alg, r.Rounds, r.Bound)
	}
	return nil
}

// checkAsync is the continuous-time gate: explored, back at the root, and
// no faster than the offline floor.
func checkAsync(r bfdn.AsyncReport, floor float64) error {
	switch {
	case !r.FullyExplored:
		return errors.New("async: tree not fully explored")
	case !r.AllAtRoot:
		return errors.New("async: robots not all back at the root")
	case r.Makespan < floor-1e-9:
		return fmt.Errorf("async: makespan %.3f below the floor %.3f", r.Makespan, floor)
	}
	return nil
}

// pointLine is the daemon's JSONL point record, serialized the same way.
type pointLine struct {
	Point  int          `json:"point"`
	Report *bfdn.Report `json:"report,omitempty"`
}

// reportsHash hashes reports serialized as the daemon streams them, so an
// in-process reference compares byte for byte with a response.
func reportsHash(reports []bfdn.Report) ([32]byte, error) {
	h := sha256.New()
	for i := range reports {
		b, err := json.Marshal(pointLine{Point: i, Report: &reports[i]})
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// distHash hashes merged coordinator lines in their JSONL form.
func distHash(lines []bfdn.DistLine) ([32]byte, error) {
	h := sha256.New()
	if err := bfdn.WriteDistJSONL(h, lines); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// localDistLines runs reports through the coordinator's line shape.
func localDistLines(reports []bfdn.Report) ([]bfdn.DistLine, error) {
	lines := make([]bfdn.DistLine, len(reports))
	for i := range reports {
		b, err := json.Marshal(&reports[i])
		if err != nil {
			return nil, err
		}
		lines[i] = bfdn.DistLine{Point: i, Report: b}
	}
	return lines, nil
}

// streamLine is any line of a daemon sweep stream.
type streamLine struct {
	Point  int             `json:"point"`
	Report json.RawMessage `json:"report"`
	Error  string          `json:"error"`
	Done   bool            `json:"done"`
}

// streamResult summarizes one verified sweep stream.
type streamResult struct {
	hash  [32]byte // over the point lines, as received
	first time.Time
	bytes int
}

// readStream reads a daemon sweep response of want points: point lines in
// order 0..want-1, each passed to check, then the done line. A missing,
// reordered, failed or unterminated line is an error.
func readStream(r io.Reader, want int, check func(i int, report json.RawMessage) error) (streamResult, error) {
	var res streamResult
	h := sha256.New()
	br := bufio.NewReaderSize(r, 64<<10)
	next := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && res.first.IsZero() {
			res.first = time.Now()
		}
		res.bytes += len(line)
		if err == io.EOF && len(line) == 0 {
			return res, fmt.Errorf("stream ended after %d of %d points without a done line", next, want)
		}
		if err != nil && err != io.EOF {
			return res, fmt.Errorf("reading stream: %w", err)
		}
		var l streamLine
		if jerr := json.Unmarshal(line, &l); jerr != nil {
			return res, fmt.Errorf("line %d: %w", next, jerr)
		}
		if l.Done {
			if next != want {
				return res, fmt.Errorf("done after %d of %d points", next, want)
			}
			h.Sum(res.hash[:0])
			return res, nil
		}
		if l.Point != next {
			return res, fmt.Errorf("line for point %d where %d was due", l.Point, next)
		}
		if l.Error != "" {
			return res, fmt.Errorf("point %d: %s", next, l.Error)
		}
		if cerr := check(next, l.Report); cerr != nil {
			return res, fmt.Errorf("point %d: %w", next, cerr)
		}
		h.Write(line)
		next++
	}
}

// checkSyncLine decodes and gates one synchronous report.
func checkSyncLine(raw json.RawMessage, alg string) error {
	var rep bfdn.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return err
	}
	return checkReport(rep, alg)
}

// post sends body as JSON and returns the response, failing on a non-200
// status.
func post(ctx context.Context, client *http.Client, url string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// scrape reads one unlabelled sample from a daemon's GET /metrics.
func scrape(ctx context.Context, client *http.Client, base, name string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}
