package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is the fleet-membership half of resumable runs (DESIGN.md S30):
// a TTL-leased set of worker base URLs replacing the static -workers list.
// Every bfdnd hosts one (POST /v1/register, GET /v1/workers) and announces
// itself to its peers; a coordinator asks any member for the live fleet
// (FetchWorkers) instead of being handed a frozen list, so a worker that
// crashed and restarted — or a fresh one joining mid-campaign — is picked up
// by the next run without reconfiguration.
//
// Membership is gossip-converged rather than centrally administered: each
// heartbeat carries the sender's own view of the fleet, the registry merges
// unknown peers provisionally, and the response returns the registry's view
// for the sender to merge back (Announce). A provisional peer that never
// heartbeats directly expires after one TTL, and an expired worker is
// tombstoned for one further TTL during which gossip may not readmit it —
// only its own heartbeat can — so a dead worker cannot be kept alive by
// gossip echoing between registries.
type Registry struct {
	ttl time.Duration
	now func() time.Time // injected by tests

	mu      sync.Mutex
	workers map[string]time.Time // base URL → lease expiry
	tombs   map[string]time.Time // expired URL → tombstone expiry
}

// NewRegistry returns a registry whose leases last ttl (≤ 0 selects 15s).
// Workers are expected to heartbeat a few times per TTL; the bfdnd announce
// interval defaults to TTL/3.
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	return &Registry{ttl: ttl, now: time.Now,
		workers: map[string]time.Time{}, tombs: map[string]time.Time{}}
}

// TTL returns the registry's lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// Heartbeat renews url's lease and merges the sender's gossiped peers: an
// unknown peer gets one provisional TTL (it must heartbeat directly to stay),
// a known peer's lease is never touched by gossip — only its own heartbeats
// renew it, so liveness information flows strictly from the worker itself.
func (r *Registry) Heartbeat(url string, peers []string) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.expireLocked(now)
	delete(r.tombs, url) // a direct heartbeat always readmits
	r.workers[url] = now.Add(r.ttl)
	for _, p := range peers {
		p = strings.TrimRight(p, "/")
		if p == "" || p == url {
			continue
		}
		_, known := r.workers[p]
		_, dead := r.tombs[p]
		if !known && !dead {
			r.workers[p] = now.Add(r.ttl)
		}
	}
}

// Workers returns the sorted live worker URLs.
func (r *Registry) Workers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(r.now())
	urls := make([]string, 0, len(r.workers))
	for u := range r.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

func (r *Registry) expireLocked(now time.Time) {
	for u, exp := range r.workers {
		if now.After(exp) {
			delete(r.workers, u)
			r.tombs[u] = now.Add(r.ttl)
		}
	}
	for u, exp := range r.tombs {
		if now.After(exp) {
			delete(r.tombs, u)
		}
	}
}

// registerRequest is the POST /v1/register body: the caller's own base URL
// plus its current view of the fleet (the gossip payload).
type registerRequest struct {
	URL   string   `json:"url"`
	Peers []string `json:"peers,omitempty"`
}

// workersResponse is the body of GET /v1/workers and of every register
// response: the registry's live fleet, sorted.
type workersResponse struct {
	Workers []string `json:"workers"`
}

// ServeRegister handles POST /v1/register: renew the sender's lease, merge
// its gossip, and answer with this registry's fleet view.
func (r *Registry) ServeRegister(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
		return
	}
	var body registerRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&body); err != nil || strings.TrimRight(body.URL, "/") == "" {
		http.Error(w, `{"error":"register: body must be {\"url\":\"http://...\",\"peers\":[...]}"}`, http.StatusBadRequest)
		return
	}
	r.Heartbeat(body.URL, body.Peers)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(workersResponse{Workers: r.Workers()})
}

// ServeWorkers handles GET /v1/workers: the sorted live fleet.
func (r *Registry) ServeWorkers(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(workersResponse{Workers: r.Workers()})
}

// AnnounceOnce sends one heartbeat for self to the registry hosted at
// target, gossiping reg's current view, and merges the returned fleet back
// into reg as provisional peers. reg may be nil (a worker announcing to an
// external registry without hosting one). The call fails after
// capacityTimeout if the registry does not answer.
func AnnounceOnce(ctx context.Context, target, self string, reg *Registry) error {
	ctx, cancel := context.WithTimeout(ctx, capacityTimeout)
	defer cancel()
	var peers []string
	if reg != nil {
		peers = reg.Workers()
	}
	body, err := json.Marshal(registerRequest{URL: self, Peers: peers})
	if err != nil {
		return fmt.Errorf("dsweep: marshal register request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(target, "/")+"/v1/register", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dsweep: register with %s: %w", target, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("dsweep: register with %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("dsweep: register with %s: status %d: %s", target, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var wr workersResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wr); err != nil {
		return fmt.Errorf("dsweep: register with %s: decode response: %w", target, err)
	}
	if reg != nil {
		reg.Heartbeat(self, wr.Workers)
	}
	return nil
}

// Announce heartbeats self to target every interval (≤ 0 selects TTL/3 of
// reg, or 5s without one) until ctx is canceled — the worker-side loop bfdnd
// runs when started with -announce. Failures are transient by design: the
// next tick retries, and a worker that misses a full TTL of heartbeats
// simply drops off the fleet until it reconnects.
func Announce(ctx context.Context, target, self string, reg *Registry, interval time.Duration) {
	if interval <= 0 {
		if reg != nil {
			interval = reg.TTL() / 3
		}
		if interval <= 0 {
			interval = 5 * time.Second
		}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		// An AnnounceOnce failure is deliberately dropped: the next tick
		// retries, and a lapsed lease only parks the worker off the fleet.
		_ = AnnounceOnce(ctx, target, self, reg)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// FetchWorkers asks the registry hosted at target for the live fleet — the
// coordinator-side replacement for a static worker list. It fails after
// capacityTimeout if the registry does not answer.
func FetchWorkers(ctx context.Context, target string) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, capacityTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(target, "/")+"/v1/workers", nil)
	if err != nil {
		return nil, fmt.Errorf("dsweep: fetch workers from %s: %w", target, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dsweep: fetch workers from %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("dsweep: fetch workers from %s: status %d: %s", target, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var wr workersResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wr); err != nil {
		return nil, fmt.Errorf("dsweep: fetch workers from %s: decode: %w", target, err)
	}
	return wr.Workers, nil
}
