package bfdn

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func testGrid(t *testing.T) []SweepPoint {
	t.Helper()
	var pts []SweepPoint
	for _, alg := range []Algorithm{BFDN, CTE, Potential} {
		for _, k := range []int{2, 4} {
			tr, err := GenerateTree(FamilyRandom, 200, 10, int64(42+k))
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, SweepPoint{Tree: tr, K: k, Algorithm: alg})
		}
	}
	return pts
}

// TestSweepResumeByteIdentity interrupts a journaled sweep after its first
// settled point and resumes it; the merged results must deep-equal an
// uninterrupted run's, and the job must finish marked done.
func TestSweepResumeByteIdentity(t *testing.T) {
	points := testGrid(t)
	want, _, err := SweepContext(context.Background(), points, 2, 99)
	if err != nil {
		t.Fatal(err)
	}

	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	settled := 0
	_, err = SweepStream(ctx, points, 2, 99, func(i int, r SweepResult) {
		mu.Lock()
		settled++
		if settled == 1 {
			cancel() // crash after the first point lands in the journal
		}
		mu.Unlock()
	}, WithJobStore(js))
	cancel()
	if err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}

	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Done {
		t.Fatalf("after interruption want one unfinished job, got %+v", jobs)
	}
	if jobs[0].Records == 0 || jobs[0].Records >= len(points) {
		t.Fatalf("want partial journal, got %d/%d records", jobs[0].Records, len(points))
	}

	got, _, err := SweepContext(context.Background(), points, 2, 99, WithJobStore(js))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errored: want %v, got %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Report, want[i].Report) {
			t.Fatalf("point %d differs after resume:\n got %+v\nwant %+v", i, got[i].Report, want[i].Report)
		}
	}
	jobs, _ = js.Jobs()
	if len(jobs) != 1 || !jobs[0].Done {
		t.Fatalf("after resume want one done job, got %+v", jobs)
	}

	// A third run replays everything from the journal without simulating.
	stats, err := SweepStream(context.Background(), points, 2, 99, nil, WithJobStore(js))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 0 {
		t.Fatalf("done job re-ran %d points", stats.Points)
	}
}

// TestAsyncSweepResumeByteIdentity is the continuous-time variant.
func TestAsyncSweepResumeByteIdentity(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 150, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	var points []AsyncSweepPoint
	for i := 0; i < 6; i++ {
		points = append(points, AsyncSweepPoint{
			Tree: tr, Speeds: []float64{1, 1.5, 0.5}, Latency: "jitter:0.3",
		})
	}
	want, _, err := SweepAsyncContext(context.Background(), points, 2, 7)
	if err != nil {
		t.Fatal(err)
	}

	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err = SweepAsyncStream(ctx, points, 2, 7, func(i int, r AsyncSweepResult) {
		once.Do(cancel)
	}, WithJobStore(js))
	cancel()
	if err != nil {
		t.Fatalf("interrupted async sweep: %v", err)
	}

	got, _, err := SweepAsyncContext(context.Background(), points, 2, 7, WithJobStore(js))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errored: want %v, got %v", i, want[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Report, want[i].Report) {
			t.Fatalf("point %d differs after resume:\n got %+v\nwant %+v", i, got[i].Report, want[i].Report)
		}
	}
}

// TestExploreCheckpointResume kills a checkpointed exploration mid-run via
// context cancellation, resumes it, and checks the report matches a plain
// run; a second resume must replay the journaled report without simulating.
func TestExploreCheckpointResume(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 400, 14, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Explore(tr, 4)
	if err != nil {
		t.Fatal(err)
	}

	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = ExploreContext(ctx, tr, 4,
		WithCheckpoint(js, 5),
		WithProgress(func(p Progress) {
			if p.Round >= 12 {
				cancel()
			}
		}))
	cancel()
	if err == nil {
		t.Fatal("interrupted exploration unexpectedly completed")
	}
	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Done {
		t.Fatalf("after kill want one unfinished job, got %+v", jobs)
	}

	got, err := ExploreContext(context.Background(), tr, 4, WithCheckpoint(js, 5))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs:\n got %+v\nwant %+v", got, want)
	}

	// Done job: replayed from the journal, byte-identical again.
	again, err := ExploreContext(context.Background(), tr, 4, WithCheckpoint(js, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("journaled report differs:\n got %+v\nwant %+v", again, want)
	}
}

// TestAppendAfterTornTail interrupts a checkpointed exploration, tears a
// report record onto its journal the way a crash mid-append would, with or
// without the newline, and restarts the store: the resumed run must journal
// its report where a later call replays it, and the store must still list
// the job as done.
func TestAppendAfterTornTail(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 400, 14, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Explore(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string]string{
		"unterminated": `{"t":"report","report":{"rounds":`,
		"newline":      "{\"t\":\"report\",\"report\":{\"rounds\":\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			js, err := OpenJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			_, err = ExploreContext(ctx, tr, 4, WithCheckpoint(js, 5), WithProgress(func(p Progress) {
				if p.Round >= 12 {
					cancel()
				}
			}))
			cancel()
			if err == nil {
				t.Fatal("interrupted exploration unexpectedly completed")
			}
			jobs, err := js.Jobs()
			if err != nil || len(jobs) != 1 {
				t.Fatalf("after kill: %+v, %v; want one job", jobs, err)
			}
			f, err := os.OpenFile(filepath.Join(dir, "jobs", jobs[0].ID, "wal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			for run := 0; run < 2; run++ {
				restarted, err := OpenJobStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ExploreContext(context.Background(), tr, 4, WithCheckpoint(restarted, 5))
				if err != nil {
					t.Fatalf("run %d after the torn append: %v", run, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: report differs:\n got %+v\nwant %+v", run, got, want)
				}
				if jobs, err := restarted.Jobs(); err != nil || len(jobs) != 1 || !jobs[0].Done {
					t.Fatalf("run %d: Jobs = %+v, %v; want one done job", run, jobs, err)
				}
			}
		})
	}
}
