package sim

import (
	"context"
	"fmt"
	"testing"

	"bfdn/internal/tree"
)

// filledMetrics returns a Metrics with every field non-zero, so reset tests
// catch any field the zeroing misses.
func filledMetrics(k int) Metrics {
	m := newMetrics(k)
	m.Rounds = 7
	m.TotalRounds = 8
	m.StillRobotRounds = 3
	m.EdgeExplorations = 5
	m.DiscoveredEdges = 6
	for i := range m.MovesPerRobot {
		m.addMove(i)
		m.addMove(i)
	}
	return m
}

func assertZero(t *testing.T, m Metrics, k int) {
	t.Helper()
	if m.Rounds != 0 || m.TotalRounds != 0 || m.Moves != 0 ||
		m.StillRobotRounds != 0 || m.EdgeExplorations != 0 || m.DiscoveredEdges != 0 {
		t.Fatalf("reset left counters: %+v", m)
	}
	if len(m.MovesPerRobot) != k {
		t.Fatalf("MovesPerRobot has %d entries, want %d", len(m.MovesPerRobot), k)
	}
	for i, v := range m.MovesPerRobot {
		if v != 0 {
			t.Fatalf("MovesPerRobot[%d] = %d after reset", i, v)
		}
	}
}

// TestMetricsResetShrinkReusesCapacity is the World.Reset zero-allocation
// path: shrinking k must zero and reslice the existing per-robot array, not
// allocate a new one.
func TestMetricsResetShrinkReusesCapacity(t *testing.T) {
	m := filledMetrics(8)
	backing := &m.MovesPerRobot[0]
	m.reset(4)
	assertZero(t, m, 4)
	if cap(m.MovesPerRobot) < 8 {
		t.Fatalf("capacity shrank to %d; backing array not reused", cap(m.MovesPerRobot))
	}
	if &m.MovesPerRobot[0] != backing {
		t.Fatal("reset to smaller k replaced the backing array")
	}
	// Same-k reset reuses too.
	m.MovesPerRobot[0] = 9
	m.reset(4)
	assertZero(t, m, 4)
	if &m.MovesPerRobot[0] != backing {
		t.Fatal("same-k reset replaced the backing array")
	}
}

func TestMetricsResetGrowAllocates(t *testing.T) {
	m := filledMetrics(2)
	m.reset(16)
	assertZero(t, m, 16)
	// The grown tail must be writable per robot.
	m.addMove(15)
	if m.MovesPerRobot[15] != 1 || m.Moves != 1 {
		t.Fatalf("grown metrics miscount: %+v", m)
	}
}

// TestMetricsCloneIsDeep verifies clone snapshots the per-robot slice: runs
// keep mutating the world's metrics after World.Metrics() copies escape.
func TestMetricsCloneIsDeep(t *testing.T) {
	m := filledMetrics(3)
	c := m.clone()
	m.addMove(1)
	m.Rounds++
	if c.MovesPerRobot[1] != 2 {
		t.Fatalf("clone tracked the original: MovesPerRobot[1] = %d, want 2", c.MovesPerRobot[1])
	}
	if c.Rounds != 7 || c.Moves != 6 {
		t.Fatalf("clone values drifted: %+v", c)
	}
}

// TestRoundHookStreamsProgress streams the world's progress from a round
// hook: one call per committed round, explored nodes and moves never fall,
// and the last call sees the full exploration and the run's moves.
func TestRoundHookStreamsProgress(t *testing.T) {
	tr, err := tree.FromParents([]int32{-1, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds, explored, moves := 0, 0, int64(0)
	res, err := RunContext(context.Background(), w, soloDFS{}, 0, nil, func(_ []Move, _ []ExploreEvent, moved bool) (bool, error) {
		if rounds++; w.Round() != rounds || w.ExploredCount() < explored || w.Moves() < moves {
			return false, fmt.Errorf("call %d at round %d: %d explored and %d moves after %d and %d",
				rounds, w.Round(), w.ExploredCount(), w.Moves(), explored, moves)
		}
		explored, moves = w.ExploredCount(), w.Moves()
		return !moved, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.TotalRounds || explored != tr.N() || moves != res.Moves {
		t.Errorf("hook saw %d rounds ending at %d explored and %d moves; the run took %d rounds and %d moves",
			rounds, explored, moves, res.TotalRounds, res.Moves)
	}
}
