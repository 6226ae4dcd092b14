package dsweep

import (
	"testing"
	"time"
)

func fleetOf(concs []int, maxPoints []int) []*workerState {
	fleet := make([]*workerState, len(concs))
	for i, c := range concs {
		fleet[i] = &workerState{url: string(rune('a' + i)), conc: c}
		if maxPoints != nil {
			fleet[i].cap.MaxPoints = maxPoints[i]
		}
	}
	return fleet
}

// checkCover asserts shards tile [0,n) contiguously.
func checkCover(t *testing.T, shards []*shard, n int) {
	t.Helper()
	at := 0
	for i, s := range shards {
		if s.lo != at || s.hi <= s.lo || s.hi > n {
			t.Fatalf("shard %d = [%d,%d), want lo=%d within [0,%d)", i, s.lo, s.hi, at, n)
		}
		at = s.hi
	}
	if at != n {
		t.Fatalf("shards cover [0,%d), want [0,%d)", at, n)
	}
}

// partition cuts n points into shards the way a run against fleet does.
func partition(n int, fleet []*workerState) []*shard {
	return cutShards(n, shardSize(n, fleet))
}

func TestPartition(t *testing.T) {
	// 100 points, 2 workers × 2 slots, oversub 4 → 16 target shards of
	// ceil(100/16) = 7 points.
	shards := partition(100, fleetOf([]int{2, 2}, nil))
	checkCover(t, shards, 100)
	if got := shards[0].hi - shards[0].lo; got != 7 {
		t.Errorf("shard size %d, want 7", got)
	}

	// A worker advertising a small maxPoints caps every shard.
	shards = partition(100, fleetOf([]int{2, 2}, []int{1000, 3}))
	checkCover(t, shards, 100)
	for _, s := range shards {
		if s.hi-s.lo > 3 {
			t.Fatalf("shard [%d,%d) exceeds the advertised maxPoints 3", s.lo, s.hi)
		}
	}

	// So does a single worker's.
	shards = partition(10, fleetOf([]int{1}, []int{2}))
	checkCover(t, shards, 10)
	if len(shards) != 5 {
		t.Errorf("%d shards, want 5", len(shards))
	}

	// Tiny plans still cover every point with at least one shard.
	shards = partition(1, fleetOf([]int{8, 8, 8}, nil))
	checkCover(t, shards, 1)

	// A bigger fleet cuts smaller shards (more slots → more shards).
	a := partition(1000, fleetOf([]int{1}, nil))
	b := partition(1000, fleetOf([]int{4, 4}, nil))
	if len(b) <= len(a) {
		t.Errorf("8-slot fleet cut %d shards, 1-slot fleet %d — weighting has no effect", len(b), len(a))
	}
}

func TestBackoffDur(t *testing.T) {
	opts := Options{retryBase: 10 * time.Millisecond, retryMax: 80 * time.Millisecond}
	for attempt := 1; attempt <= 64; attempt++ {
		// Cap: min(base·2ⁿ⁻¹, max); jitter keeps the sleep in [d/2, d].
		want := opts.retryMax
		if attempt <= 3 {
			want = opts.retryBase << uint(attempt-1)
		}
		for i := 0; i < 20; i++ {
			d := backoffDur(opts, attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}
