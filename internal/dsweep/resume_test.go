// Chaos coverage for resumable coordinator runs: the coordinator process is
// "killed" (context canceled, store handle dropped) mid-sweep and a fresh
// coordinator with a fresh store handle over the same directory resumes the
// job. The load-bearing assertion stays byte identity: replayed + live lines
// merge into exactly the JSONL a never-interrupted local run produces.
package dsweep_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfdn/internal/dsweep"
	"bfdn/internal/jobstore"
	"bfdn/internal/server"
)

// openStore opens a fresh handle over dir, simulating a restarted process
// that shares nothing with the previous run but the directory.
func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	s, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCoordinatorKillRestartResumes(t *testing.T) {
	workers := []string{
		startWorker(t, server.Config{MaxJobs: 4, SweepWorkers: 2, MaxPoints: 2}, nil),
		startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 2, MaxPoints: 2}, nil),
	}
	plan := testPlan(40)
	dir := t.TempDir()

	// Run 1: the coordinator dies (context canceled) after six merged lines.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	partial, stats1, err := dsweep.Run(ctx, plan, workers, dsweep.Options{
		Store: openStore(t, dir),
		OnLine: func(dsweep.Line) {
			if seen++; seen == 6 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run error = %v, want context.Canceled", err)
	}
	if len(partial) < 6 || len(partial) >= len(plan.Points) {
		t.Fatalf("killed run merged %d lines, want a strict partial prefix of ≥ 6", len(partial))
	}

	// The journal must already hold everything the killed run emitted: jobs
	// lists one unfinished dsweep job with shard records on disk.
	jobs, err := openStore(t, dir).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Kind != "dsweep" || jobs[0].Done {
		t.Fatalf("after kill want one unfinished dsweep job, got %+v", jobs)
	}
	if jobs[0].Records < 2 { // the cut record plus at least one shard
		t.Fatalf("after kill want journaled shards, got %d WAL records", jobs[0].Records)
	}

	// Run 2: a restarted coordinator resumes against a new fleet that
	// advertises a different maxPoints on purpose — the journaled cut must
	// win over the fresh fleet's, or shard boundaries would no longer match
	// the WAL ranges.
	workers = []string{
		startWorker(t, server.Config{MaxJobs: 4, SweepWorkers: 2, MaxPoints: 7}, nil),
		startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 2, MaxPoints: 7}, nil),
	}
	var order []int
	lines, stats2, err := dsweep.Run(context.Background(), plan, workers, dsweep.Options{
		Store:  openStore(t, dir),
		OnLine: func(l dsweep.Line) { order = append(order, l.Point) },
	})
	if err != nil {
		t.Fatalf("resumed run: %v (stats: %s)", err, stats2)
	}
	requireIdentical(t, plan, lines)
	if stats2.Shards != stats1.Shards {
		t.Errorf("resumed run cut %d shards, killed run %d — the journaled cut was not reused", stats2.Shards, stats1.Shards)
	}
	if stats2.Replayed < 6 || stats2.Replayed >= len(plan.Points) {
		t.Errorf("Replayed = %d, want ≥ 6 and < %d", stats2.Replayed, len(plan.Points))
	}
	for i, p := range order {
		if p != i {
			t.Fatalf("resumed OnLine emitted point %d at position %d — replayed and live lines interleaved out of order", p, i)
		}
	}
	if len(order) != len(plan.Points) {
		t.Errorf("resumed OnLine saw %d lines, want %d (replayed lines must stream too)", len(order), len(plan.Points))
	}

	// Run 3: the job is done, so the plan is answered entirely from the
	// journal — no worker list needed at all.
	again, stats3, err := dsweep.Run(context.Background(), plan, nil, dsweep.Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	requireIdentical(t, plan, again)
	if stats3.Replayed != len(plan.Points) {
		t.Errorf("replay run Replayed = %d, want %d", stats3.Replayed, len(plan.Points))
	}
	if stats3.Workers != 0 || stats3.Shards != 0 {
		t.Errorf("replay run touched the fleet: stats %+v", stats3)
	}
}

func TestResumeRejectsCorruptJournal(t *testing.T) {
	workers := []string{startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 2, MaxPoints: 2}, nil)}
	plan := testPlan(8)
	dir := t.TempDir()

	if _, _, err := dsweep.Run(context.Background(), plan, workers, dsweep.Options{
		Store: openStore(t, dir),
	}); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	// An unknown record type anywhere before the tail is corruption, not a
	// torn append: the resume must refuse rather than guess.
	jobs, err := openStore(t, dir).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "jobs", jobs[0].ID, "wal.jsonl")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n')
	tampered := append([]byte(`{"t":"bogus"}`+"\n"), data[first+1:]...)
	if err := os.WriteFile(wal, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = dsweep.Run(context.Background(), plan, workers, dsweep.Options{Store: openStore(t, dir)})
	if err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("tampered journal error = %v, want unknown record type", err)
	}
}
