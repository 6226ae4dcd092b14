package dsweep

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// clock is a manually advanced time source for lease tests.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestRegistry(ttl time.Duration) (*Registry, *clock) {
	c := &clock{t: time.Unix(1000, 0)}
	r := NewRegistry(ttl)
	r.now = c.now
	return r, c
}

func TestRegistryLeases(t *testing.T) {
	r, c := newTestRegistry(10 * time.Second)

	r.Heartbeat("http://a:1/", nil) // trailing slash is normalized away
	r.Heartbeat("http://b:2", nil)
	if got := r.Workers(); !reflect.DeepEqual(got, []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("Workers = %v", got)
	}

	// b keeps heartbeating; a goes silent and must expire after its TTL.
	c.advance(6 * time.Second)
	r.Heartbeat("http://b:2", nil)
	c.advance(6 * time.Second)
	if got := r.Workers(); !reflect.DeepEqual(got, []string{"http://b:2"}) {
		t.Fatalf("after a's lease lapsed, Workers = %v", got)
	}
}

func TestRegistryGossipIsProvisional(t *testing.T) {
	r, c := newTestRegistry(10 * time.Second)

	// a's heartbeat gossips c; c joins provisionally.
	r.Heartbeat("http://a:1", []string{"http://c:3", "http://a:1"})
	if got := r.Workers(); !reflect.DeepEqual(got, []string{"http://a:1", "http://c:3"}) {
		t.Fatalf("Workers = %v", got)
	}

	// Continued gossip about c must NOT renew its lease — only c's own
	// heartbeat can. After one TTL of gossip-only echo, c is gone while a,
	// which heartbeats for itself, stays.
	c.advance(6 * time.Second)
	r.Heartbeat("http://a:1", []string{"http://c:3"})
	c.advance(6 * time.Second)
	r.Heartbeat("http://a:1", []string{"http://c:3"})
	if got := r.Workers(); !reflect.DeepEqual(got, []string{"http://a:1"}) {
		t.Fatalf("gossip kept a silent worker alive: Workers = %v", got)
	}
}

// TestAnnounceConvergence wires two registries the way two bfdnd processes
// would be: each announces itself to the other, and both views converge to
// the full fleet through the register round-trips alone.
func TestAnnounceConvergence(t *testing.T) {
	regA, regB := NewRegistry(time.Minute), NewRegistry(time.Minute)
	mux := func(r *Registry) http.Handler {
		m := http.NewServeMux()
		m.HandleFunc("/v1/register", r.ServeRegister)
		m.HandleFunc("/v1/workers", r.ServeWorkers)
		return m
	}
	srvA := httptest.NewServer(mux(regA))
	defer srvA.Close()
	srvB := httptest.NewServer(mux(regB))
	defer srvB.Close()

	ctx := context.Background()
	// A announces to B, then B announces to A: after one exchange each way,
	// both registries know both workers.
	if err := AnnounceOnce(ctx, srvB.URL, srvA.URL, regA); err != nil {
		t.Fatal(err)
	}
	if err := AnnounceOnce(ctx, srvA.URL, srvB.URL, regB); err != nil {
		t.Fatal(err)
	}
	if err := AnnounceOnce(ctx, srvB.URL, srvA.URL, regA); err != nil {
		t.Fatal(err)
	}
	want := []string{srvA.URL, srvB.URL}
	if srvB.URL < srvA.URL {
		want = []string{srvB.URL, srvA.URL}
	}
	if got := regA.Workers(); !reflect.DeepEqual(got, want) {
		t.Errorf("registry A converged to %v, want %v", got, want)
	}
	if got := regB.Workers(); !reflect.DeepEqual(got, want) {
		t.Errorf("registry B converged to %v, want %v", got, want)
	}

	// A coordinator fetches the fleet from either member.
	fleet, err := FetchWorkers(ctx, srvA.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleet, want) {
		t.Errorf("FetchWorkers = %v, want %v", fleet, want)
	}
}

func TestRegisterRejectsBadBody(t *testing.T) {
	r := NewRegistry(time.Minute)
	srv := httptest.NewServer(http.HandlerFunc(r.ServeRegister))
	defer srv.Close()

	resp, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	if err := AnnounceOnce(context.Background(), srv.URL, "", nil); err == nil {
		t.Error("AnnounceOnce with empty self URL did not error")
	}
}

// TestRegistryCallsHaveDeadline: a registry that accepts the connection but
// never answers fails AnnounceOnce and FetchWorkers with a deadline error,
// even when the caller's context has none.
func TestRegistryCallsHaveDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)
	errs := make(chan error, 2)
	go func() { errs <- AnnounceOnce(context.Background(), srv.URL, "http://self:1", nil) }()
	go func() {
		_, err := FetchWorkers(context.Background(), srv.URL)
		errs <- err
	}()
	guard := time.After(capacityTimeout + 10*time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("registry call returned %v, want a deadline error", err)
			}
		case <-guard:
			t.Fatalf("registry calls still blocked after %v", capacityTimeout+10*time.Second)
		}
	}
}
