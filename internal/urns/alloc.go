package urns

import (
	"fmt"

	"bfdn/internal/bounds"
)

// AllocResult summarizes a run of the online worker-reassignment scheduler.
type AllocResult struct {
	// Makespan is the number of rounds until every task is finished.
	Makespan int
	// Reassignments counts worker task-switches (the game's step count; the
	// initial assignment is free). §3: at most k·log k + 2k under the
	// least-crowded rule, irrespective of task lengths.
	Reassignments int
}

// Allocate simulates the paper's resource-allocation interpretation of the
// urns game (§3): k workers and k parallelizable tasks of unknown integer
// lengths. Worker i starts on task i; each round every worker completes one
// unit of its task; when a task finishes, its workers are reassigned one by
// one to the unfinished task with the fewest workers (the least-loaded
// player strategy). Lengths must be positive.
func Allocate(lengths []int) (AllocResult, error) {
	k := len(lengths)
	if k == 0 {
		return AllocResult{}, fmt.Errorf("urns: no tasks")
	}
	remaining := make([]int, k)
	for i, l := range lengths {
		if l < 1 {
			return AllocResult{}, fmt.Errorf("urns: task %d has length %d, want ≥ 1", i, l)
		}
		remaining[i] = l
	}
	workersOn := make([]int, k) // workers currently assigned to task i
	for i := range workersOn {
		workersOn[i] = 1
	}
	unfinished := k
	var res AllocResult
	for unfinished > 0 {
		// One round of parallel work.
		res.Makespan++
		var freed int
		for i := range remaining {
			if remaining[i] <= 0 {
				continue
			}
			remaining[i] -= workersOn[i]
			if remaining[i] <= 0 {
				unfinished--
				freed += workersOn[i]
				workersOn[i] = 0
			}
		}
		// Reassign freed workers to the least-crowded unfinished tasks.
		for w := 0; w < freed && unfinished > 0; w++ {
			best, bestLoad := -1, int(^uint(0)>>1)
			for i := range remaining {
				if remaining[i] > 0 && workersOn[i] < bestLoad {
					best, bestLoad = i, workersOn[i]
				}
			}
			workersOn[best]++
			res.Reassignments++
		}
	}
	return res, nil
}

// AllocateBound evaluates the §3 guarantee k·log k + 2k on reassignments.
func AllocateBound(k int) float64 { return bounds.Theorem3(k, k) }
