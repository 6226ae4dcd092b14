package exp

import (
	"errors"
	"strings"
	"testing"

	"bfdn/internal/sweep"
	"bfdn/internal/table"
)

func TestRunAllNoViolations(t *testing.T) {
	reports, err := RunAllParallel(DefaultConfig(), 1)
	if err != nil {
		t.Fatalf("RunAllParallel: %v", err)
	}
	if len(reports) != 18 {
		t.Fatalf("got %d reports, want 18", len(reports))
	}
	for _, r := range reports {
		if r.Outcome.Checks == 0 {
			t.Errorf("%s: no predictions checked", r.ID)
		}
		if r.Outcome.Violations != 0 {
			t.Errorf("%s: %d/%d predictions violated: %v",
				r.ID, r.Outcome.Violations, r.Outcome.Checks, r.Outcome.Notes)
		}
		if len(r.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
	}
}

func TestE2Figure1MapsRendered(t *testing.T) {
	_, extra, out, err := E2Figure1(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Violations != 0 {
		t.Errorf("violations: %v", out.Notes)
	}
	for _, want := range []string{"legend", "winner", "BFDN"} {
		if !strings.Contains(extra, want) {
			t.Errorf("E2 extra output missing %q", want)
		}
	}
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	seq, err := RunAllParallel(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllParallel(DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Errorf("order differs at %d: %s vs %s", i, seq[i].ID, par[i].ID)
		}
		if seq[i].Table.Render() != par[i].Table.Render() {
			t.Errorf("%s: parallel output differs from sequential", seq[i].ID)
		}
	}
}

// TestRunDefinitionsJoinsErrorsAndKeepsCompletedReports pins the suite
// runner's failure contract: every failing experiment's error is reported
// (errors.Join) and the successfully completed reports are still returned,
// in suite order.
func TestRunDefinitionsJoinsErrorsAndKeepsCompletedReports(t *testing.T) {
	okDef := func(id string) definition {
		return definition{id: id, run: func(Config) (Report, error) {
			return Report{ID: id}, nil
		}}
	}
	failDef := func(id string) definition {
		return definition{id: id, run: func(Config) (Report, error) {
			return Report{}, errors.New(id + " exploded")
		}}
	}
	defs := []definition{okDef("X1"), failDef("X2"), okDef("X3"), failDef("X4"), okDef("X5")}
	for _, workers := range []int{1, 3, 8} {
		reports, err := runDefinitions(defs, DefaultConfig(), workers)
		if err == nil {
			t.Fatalf("workers=%d: no error despite two failures", workers)
		}
		for _, id := range []string{"X2 exploded", "X4 exploded"} {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("workers=%d: joined error %q misses %q", workers, err, id)
			}
		}
		var ids []string
		for _, r := range reports {
			ids = append(ids, r.ID)
		}
		if got := strings.Join(ids, ","); got != "X1,X3,X5" {
			t.Errorf("workers=%d: completed reports = %s, want X1,X3,X5", workers, got)
		}
	}
}

// TestSweepExperimentsWorkerInvariant checks that the sweep-ported
// experiments render identically at any engine worker count.
func TestSweepExperimentsWorkerInvariant(t *testing.T) {
	for _, tc := range []struct {
		id  string
		run func(Config) (*table.Table, Outcome, error)
	}{
		{"E1", E1Theorem1},
		{"E14", E14CompetitiveRatio},
		{"E15", E15FourWay},
		{"A1", A1ReanchorPolicy},
	} {
		cfg := DefaultConfig()
		cfg.Workers = 1
		seq, _, err := tc.run(cfg)
		if err != nil {
			t.Fatalf("%s workers=1: %v", tc.id, err)
		}
		cfg.Workers = 4
		par, _, err := tc.run(cfg)
		if err != nil {
			t.Fatalf("%s workers=4: %v", tc.id, err)
		}
		if seq.Render() != par.Render() {
			t.Errorf("%s: output differs between 1 and 4 sweep workers", tc.id)
		}
	}
}

// TestStatsSinkReceivesSweepStats checks the observability hook fires for
// every engine invocation of a ported experiment.
func TestStatsSinkReceivesSweepStats(t *testing.T) {
	cfg := DefaultConfig()
	var labels []string
	var points int
	cfg.StatsSink = func(label string, s sweep.Stats) {
		labels = append(labels, label)
		points += s.Points
	}
	if _, _, err := E1Theorem1(cfg); err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0] != "E1" {
		t.Fatalf("labels = %v", labels)
	}
	if points != 33 { // 11 workload trees × k ∈ {2, 8, 32}
		t.Errorf("E1 sweep ran %d points, want 33", points)
	}
}

// TestE15FourWayNoViolations is the four-way comparison smoke: every
// algorithm finishes inside its closed-form envelope and the successors
// beat CTE on its lower-bound family. CI runs it by name.
func TestE15FourWayNoViolations(t *testing.T) {
	tb, out, err := E15FourWay(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Violations != 0 {
		t.Errorf("%d/%d predictions violated: %v", out.Violations, out.Checks, out.Notes)
	}
	if len(tb.Rows) != 7 {
		t.Errorf("got %d rows, want 7", len(tb.Rows))
	}
}

func TestE16AsyncGuaranteeNoViolations(t *testing.T) {
	tb, out, err := E16AsyncGuarantee(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Violations != 0 {
		t.Errorf("%d/%d predictions violated: %v", out.Violations, out.Checks, out.Notes)
	}
	// 7 trees × 2 algorithms × 2 fleets × 3 latency models.
	if len(tb.Rows) != 7*2*2*3 {
		t.Errorf("got %d rows, want %d", len(tb.Rows), 7*2*2*3)
	}
	// Every CTE-hard family must exercise both check directions: the floor
	// on every point and the envelope on every bounded-latency uniform point.
	if want := 84 * 2; out.Checks < want { // completeness + floor on every point
		t.Errorf("only %d checks ran, want ≥ %d", out.Checks, want)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	t1, _, err := E1Theorem1(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := E1Theorem1(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if t1.Render() != t2.Render() {
		t.Error("E1 output differs across identical runs")
	}
}

func TestEmpiricalRegionMap(t *testing.T) {
	m, err := EmpiricalRegionMap(DefaultConfig(), 16, 8, 5, 11, 6, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "B") {
		t.Errorf("no BFDN cells in:\n%s", m)
	}
	if !strings.Contains(m, "log2(D)") {
		t.Error("missing axis label")
	}
	if _, err := EmpiricalRegionMap(DefaultConfig(), 4, 1, 1, 8, 4, 100); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestOutcomeCheck(t *testing.T) {
	var o Outcome
	o.check(true, "fine")
	o.check(false, "bad %d", 7)
	if o.Checks != 2 || o.Violations != 1 {
		t.Errorf("outcome = %+v", o)
	}
	if len(o.Notes) != 1 || o.Notes[0] != "bad 7" {
		t.Errorf("notes = %v", o.Notes)
	}
}
