package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"bfdn"
)

// onlyJob returns the single job of js with its first journal line. Every
// case below runs with one sweep worker, so the journal's first record is
// point 0's.
func onlyJob(t *testing.T, js *bfdn.JobStore) (id, firstWAL string) {
	t.Helper()
	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("store holds %d jobs, want 1", len(jobs))
	}
	f, err := os.Open(filepath.Join(js.Store().Dir(), "jobs", jobs[0].ID, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("job %s: empty journal (%v)", jobs[0].ID, sc.Err())
	}
	return jobs[0].ID, sc.Text()
}

// TestJobIdentityPinned pins what an older bfdnd left on disk: the
// content-addressed job IDs (hashes of the canonical plan bytes) and the
// journal record encoding of both engines, through the daemon, the facade
// and the distributed coordinator. A changed byte in either would orphan
// every journal written before it, so the constants only change together
// with a migration.
func TestJobIdentityPinned(t *testing.T) {
	const (
		sweepBody = `{"seed":11,"indexBase":2,"points":[
			{"family":"random","n":120,"depth":6,"treeSeed":1,"k":3,"algorithm":"cte"},
			{"family":"comb","n":90,"depth":5,"treeSeed":2,"k":2,"algorithm":"bfdnl","ell":2}]}`
		asyncBody = `{"seed":5,"indexBase":1,"points":[
			{"family":"random","n":120,"depth":6,"treeSeed":1,"speeds":[1,2],"algorithm":"potential","latency":"jitter:0.5"},
			{"family":"spider","n":80,"depth":8,"treeSeed":3,"speeds":[1,1,3],"latency":"constant"}]}`

		httpSweepID    = `a186180f19f077e8`
		httpSweepWAL   = `{"t":"point","i":0,"report":{"rounds":102,"moves":306,"edgeExplorations":119,"bound":115.2287071952205,"offlineLowerBound":79.33333333333333,"fullyExplored":true,"allAtRoot":true}}`
		httpAsyncID    = `fcc548efe01485c5`
		httpAsyncWAL   = `{"t":"point","i":0,"report":{"makespan":132.54586927390358,"workDist":[106,206],"events":315,"floor":79.33333333333333,"fullyExplored":true,"allAtRoot":true}}`
		facadeSyncID   = `7933dd609f105135`
		facadeSyncWAL  = `{"t":"point","i":0,"report":{"rounds":144,"moves":426,"edgeExplorations":149,"bound":263,"offlineLowerBound":99.33333333333333,"fullyExplored":true,"allAtRoot":true}}`
		facadeAsyncID  = `81d5e82cb3763d29`
		facadeAsyncWAL = `{"t":"point","i":0,"report":{"makespan":179.54198188019856,"workDist":[86,194,174],"events":457,"floor":59.6,"fullyExplored":true,"allAtRoot":true}}`
	)
	check := func(t *testing.T, js *bfdn.JobStore, wantID, wantWAL string) {
		t.Helper()
		id, wal := onlyJob(t, js)
		if id != wantID {
			t.Errorf("job ID = %s, want %s", id, wantID)
		}
		if wal != wantWAL {
			t.Errorf("first journal line:\n got %s\nwant %s", wal, wantWAL)
		}
	}
	openStore := func(t *testing.T) *bfdn.JobStore {
		js, err := bfdn.OpenJobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	for _, c := range []struct {
		name, path, body, id, wal string
	}{
		{"http/sweep", "/v1/sweep", sweepBody, httpSweepID, httpSweepWAL},
		{"http/asyncsweep", "/v1/asyncsweep", asyncBody, httpAsyncID, httpAsyncWAL},
	} {
		t.Run(c.name, func(t *testing.T) {
			js := openStore(t)
			ts := httptest.NewServer(New(Config{Store: js, SweepWorkers: 1}).Handler())
			defer ts.Close()
			resp, data := postJSON(t, ts.Client(), ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			check(t, js, c.id, c.wal)
		})
	}

	tr, err := bfdn.GenerateTree(bfdn.FamilyRandom, 150, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("facade/sweep", func(t *testing.T) {
		js := openStore(t)
		pts := []bfdn.SweepPoint{{Tree: tr, K: 3, Algorithm: bfdn.Potential}, {Tree: tr, K: 2}}
		if _, err := bfdn.SweepStream(context.Background(), pts, 1, 8, nil,
			bfdn.WithJobStore(js), bfdn.WithSeedIndexBase(3)); err != nil {
			t.Fatal(err)
		}
		check(t, js, facadeSyncID, facadeSyncWAL)
	})
	t.Run("facade/asyncsweep", func(t *testing.T) {
		js := openStore(t)
		pts := []bfdn.AsyncSweepPoint{
			{Tree: tr, Speeds: []float64{1, 2, 2}, Algorithm: bfdn.AsyncPotential, Latency: "pareto:2"},
			{Tree: tr, Speeds: []float64{1}},
		}
		if _, err := bfdn.SweepAsyncStream(context.Background(), pts, 1, 8, nil,
			bfdn.WithJobStore(js), bfdn.WithSeedIndexBase(3)); err != nil {
			t.Fatal(err)
		}
		check(t, js, facadeAsyncID, facadeAsyncWAL)
	})
	t.Run("facade/explore", func(t *testing.T) {
		// A checkpointed exploration's job ID hashes its plan, and its
		// journal holds the one report record.
		const (
			exploreID  = `3b1203592e1cdc39`
			exploreWAL = `{"t":"report","report":{"rounds":114,"moves":334,"edgeExplorations":149,"bound":300.8320021447373,"offlineLowerBound":99.33333333333333,"fullyExplored":true,"allAtRoot":true}}`
		)
		js := openStore(t)
		if _, err := bfdn.Explore(tr, 3, bfdn.WithCheckpoint(js, 16)); err != nil {
			t.Fatal(err)
		}
		check(t, js, exploreID, exploreWAL)
	})
	t.Run("facade/dsweep", func(t *testing.T) {
		// The coordinator's job ID hashes its plan, and its shard bodies are
		// what every worker parses: pin both. The first spec leaves
		// Algorithm, Depth and TreeSeed at zero and sets Ell, so the pins
		// cover which zero fields the wire form omits.
		const (
			dsweepID  = `48900145a5a75823`
			dsweepWAL = `{"t":"cut","size":1}`
		)
		dsweepBodies := []string{
			`{"seed":6,"indexBase":0,"timeoutMs":120000,"points":[{"family":"path","n":40,"k":2,"ell":3}]}`,
			`{"seed":6,"indexBase":1,"timeoutMs":120000,"points":[{"family":"random","n":60,"depth":5,"treeSeed":2,"k":3,"algorithm":"bfdnl","ell":2}]}`,
			`{"seed":6,"indexBase":2,"timeoutMs":120000,"points":[{"family":"comb","n":50,"depth":4,"k":2,"algorithm":"potential"}]}`,
		}
		js := openStore(t)
		// MaxJobs 1 keeps one shard in flight, so bodies arrive in plan order.
		inner := New(Config{MaxJobs: 1, SweepWorkers: 1}).Handler()
		var mu sync.Mutex
		var bodies []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" {
				b, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				bodies = append(bodies, string(b))
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(b))
			}
			inner.ServeHTTP(w, r)
		}))
		defer ts.Close()
		specs := []bfdn.SweepSpec{
			{Family: bfdn.FamilyPath, N: 40, K: 2, Ell: 3},
			{Family: bfdn.FamilyRandom, N: 60, Depth: 5, TreeSeed: 2, K: 3, Algorithm: bfdn.BFDNRecursive, Ell: 2},
			{Family: bfdn.FamilyComb, N: 50, Depth: 4, K: 2, Algorithm: bfdn.Potential},
		}
		if _, _, err := bfdn.SweepDistributed(context.Background(), specs, []string{ts.URL}, 6,
			bfdn.WithDistStore(js)); err != nil {
			t.Fatal(err)
		}
		check(t, js, dsweepID, dsweepWAL)
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(bodies, dsweepBodies) {
			t.Errorf("shard request bodies:\n got %q\nwant %q", bodies, dsweepBodies)
		}
	})
}
