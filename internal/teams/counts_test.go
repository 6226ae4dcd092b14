package teams

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// rules are the two split rules, by the algorithm that uses each.
var rules = []struct {
	name string
	rule Rule
}{{"cte", Even}, {"treemining", Proportional}}

// TestOpenSubtreeCountsExact validates the walk's incremental per-subtree
// dangling-edge counters against a brute-force recount after every round,
// under both split rules — the counters drive every routing decision, so
// silent drift would corrupt the algorithms without necessarily failing
// the end-to-end checks.
//
// Timing: after Apply of round r, the counters reflect events up to round
// r−1 (they absorb round r's events at the next SelectMoves), while the
// view reflects round r. The recount is therefore adjusted by undoing
// round r's events before comparing.
func TestOpenSubtreeCountsExact(t *testing.T) {
	for _, rc := range rules {
		t.Run(rc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(73))
			tr := tree.Random(200, 12, rng)
			k := 5
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			c := New(k, rc.name, rc.rule)
			v := w.View()
			res, err := sim.RunContext(context.Background(), w, c, 0, nil, func(_ []sim.Move, events []sim.ExploreEvent, moved bool) (bool, error) {
				for node := tree.NodeID(0); int(node) < tr.N(); node++ {
					if !v.Explored(node) {
						continue
					}
					adjusted := recountOpen(v, node)
					for _, e := range events {
						switch {
						case tr.IsAncestor(node, e.Parent):
							// Round r consumed one dangling edge at e.Parent and
							// added e.NewDangling at e.Child, both inside T(node).
							adjusted -= e.NewDangling - 1
						case node == e.Child:
							// The node itself was discovered this round; the
							// counter does not know it yet (implicitly zero).
							adjusted -= e.NewDangling
						}
					}
					if got := int(c.open.get(node)); got != adjusted {
						return false, fmt.Errorf("round %d node %d: counter %d, adjusted recount %d",
							v.Round(), node, got, adjusted)
					}
				}
				return !moved, nil
			})
			if err != nil || !res.FullyExplored {
				t.Fatalf("explored=%v: %v", res.FullyExplored, err)
			}
		})
	}
}

// recountOpen counts dangling edges in T(node) from the view.
func recountOpen(v *sim.View, node tree.NodeID) int {
	total := 0
	stack := []tree.NodeID{node}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		total += v.DanglingAt(u)
		stack = append(stack, v.ExploredChildren(u)...)
	}
	return total
}
