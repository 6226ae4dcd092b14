package sim

import (
	"context"
	"errors"
	"testing"

	"bfdn/internal/tree"
)

// TestRunContextCancelsMidRun cancels the context from a round hook after
// round 10: cancellation is round-granular, so the run stops before round 11
// and never completes.
func TestRunContextCancelsMidRun(t *testing.T) {
	w, err := NewWorld(tree.Path(200), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunContext(ctx, w, soloDFS{}, 0, nil, func([]Move, []ExploreEvent, bool) (bool, error) {
		if w.Round() == 10 {
			cancel()
		}
		return false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if w.Round() != 10 || w.FullyExplored() {
		t.Errorf("canceled after round 10, the run went on to round %d (explored: %v)", w.Round(), w.FullyExplored())
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	w, err := NewWorld(tree.Path(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, w, soloDFS{}, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := w.Round(); got != 0 {
		t.Errorf("pre-canceled run advanced to round %d", got)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	for _, k := range []int{1, 3} {
		w1, _ := NewWorld(tree.KAry(2, 6), k)
		w2, _ := NewWorld(tree.KAry(2, 6), k)
		r1, err1 := Run(w1, soloDFS{}, 0)
		r2, err2 := RunContext(context.Background(), w2, soloDFS{}, 0, nil, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("errs: %v, %v", err1, err2)
		}
		if r1.Rounds != r2.Rounds || r1.Moves != r2.Moves ||
			r1.FullyExplored != r2.FullyExplored || r1.AllAtRoot != r2.AllAtRoot {
			t.Errorf("k=%d: Run=%+v RunContext=%+v", k, r1, r2)
		}
	}
}

// TestRoundHookErrorAbortsRun: a hook's error stops the run at the round
// that raised it and is returned unwrapped.
func TestRoundHookErrorAbortsRun(t *testing.T) {
	w, err := NewWorld(tree.Path(50), 1)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	_, err = RunContext(context.Background(), w, soloDFS{}, 0, nil, func([]Move, []ExploreEvent, bool) (bool, error) {
		if w.Round() == 7 {
			return false, errStop
		}
		return false, nil
	})
	if !errors.Is(err, errStop) || w.Round() != 7 {
		t.Fatalf("run stopped at round %d with %v, want round 7 and the hook's error", w.Round(), err)
	}
}
