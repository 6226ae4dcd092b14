package exp

import (
	"errors"
	"fmt"
	"sync"

	"bfdn/internal/table"
)

// Report bundles one experiment's rendered results.
type Report struct {
	ID          string
	Description string
	Table       *table.Table
	// Extra holds non-tabular output (the Figure 1 maps).
	Extra   string
	Outcome Outcome
}

// definition registers one experiment.
type definition struct {
	id, description string
	run             func(Config) (Report, error)
}

// wrap adapts the common (table, outcome, error) signature.
func wrap(id, desc string, f func(Config) (*table.Table, Outcome, error)) definition {
	return definition{id: id, description: desc, run: func(cfg Config) (Report, error) {
		tb, out, err := f(cfg)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", id, err)
		}
		return Report{ID: id, Description: desc, Table: tb, Outcome: out}, nil
	}}
}

func definitions() []definition {
	defs := []definition{
		wrap("E1", "Theorem 1 runtime bound", E1Theorem1),
		{id: "E2", description: "Figure 1 region map", run: func(cfg Config) (Report, error) {
			tb, extra, out, err := E2Figure1(cfg)
			if err != nil {
				return Report{}, fmt.Errorf("E2: %w", err)
			}
			return Report{ID: "E2", Description: "Figure 1 region map", Table: tb, Extra: extra, Outcome: out}, nil
		}},
		wrap("E3", "Theorem 3 urns game", E3Urns),
		wrap("E4", "Lemma 2 re-anchor budget", E4Lemma2),
		wrap("E5", "Claims 1-3", E5Claims),
		wrap("E6", "Proposition 6 write-read model", E6WriteRead),
		wrap("E7", "Proposition 7 break-downs", E7Breakdowns),
		wrap("E8", "Proposition 9 grid graphs", E8GridGraphs),
		wrap("E9", "Theorem 10 recursive BFDN_l", E9Recursive),
		wrap("E10", "BFDN vs CTE vs offline", E10CTEComparison),
		wrap("E11", "Resource allocation", E11ResourceAllocation),
		wrap("E12", "Open directions: level-wise O(D²)", E12OpenDirections),
		wrap("E13", "Remark 8: continuous time / heterogeneous speeds", E13ContinuousTime),
		wrap("E14", "Competitive ratio T/(n/k+D) across k", E14CompetitiveRatio),
		wrap("E15", "Four-way BFDN / CTE / Tree-Mining / Potential", E15FourWay),
		wrap("E16", "Asynchronous guarantee vs continuous-time floor", E16AsyncGuarantee),
		wrap("A1", "Ablation: Reanchor policy", A1ReanchorPolicy),
		wrap("A2", "Ablation: return-to-root", A2ReturnToRoot),
	}
	return defs
}

// RunAllParallel executes the suite on up to workers goroutines (the
// experiments are independent and deterministic, so the output is identical
// to a sequential run). It returns every report that completed, in suite
// order, together with the errors of *all* failing experiments joined via
// errors.Join — one failing experiment neither hides the other reports nor
// swallows later workers' errors.
func RunAllParallel(cfg Config, workers int) ([]Report, error) {
	return runDefinitions(definitions(), cfg, workers)
}

// runDefinitions is the worker-pool body of RunAllParallel, split out so the
// error-joining contract is testable with synthetic experiment definitions.
func runDefinitions(defs []definition, cfg Config, workers int) ([]Report, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(defs) {
		workers = len(defs)
	}
	reports := make([]Report, len(defs))
	errs := make([]error, len(defs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i], errs[i] = defs[i].run(cfg)
			}
		}()
	}
	for i := range defs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	completed := make([]Report, 0, len(defs))
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, err)
			continue
		}
		completed = append(completed, reports[i])
	}
	return completed, errors.Join(failures...)
}
