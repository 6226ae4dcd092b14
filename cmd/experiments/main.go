// Command experiments runs the full reproduction suite E1–E16 and the
// ablations A1–A2 (the experiment index of DESIGN.md) and prints one table
// per experiment, flagging any violated paper prediction. Experiments that
// fail do not suppress the others: every completed table is printed and all
// errors are reported together.
//
// Usage:
//
//	experiments                    # CI-sized run
//	experiments -scale 3           # larger workloads
//	experiments -csv               # machine-readable output
//	experiments -sweepstats        # per-sweep engine throughput on stderr
//	experiments -metrics -         # dump suite-wide engine metrics to stderr
//	experiments -metrics m.prom    # ... or to a file, Prometheus text format
//	experiments -cpuprofile cpu.pp # write a pprof CPU profile
//	experiments -memprofile mem.pp # write a pprof heap profile
//
// With -workers the command becomes a distributed sweep driver instead of
// the local suite: it builds a benchmark grid (sized by -scale, seeded by
// -seed), dispatches it across the given bfdnd instances, streams the merged
// JSONL to stdout and a coordinator summary to stderr. The merged output is
// byte-identical to what a single local worker would produce for the same
// grid, so two fleets — or a fleet and a single daemon — can be diffed.
//
//	experiments -workers http://a:8080,http://b:8080           # distribute
//	experiments -workers http://a:8080 -scale 4 -hedge         # hedged tail
//	experiments -registry http://reg:8080 -store ./jobs        # live fleet,
//	                                                           # resumable
//
// With -registry the fleet is fetched live from a bfdnd registry's
// GET /v1/workers instead of being listed by hand; with -store the
// coordinator journals the run into a persistent job store, so rerunning the
// identical command after a crash replays finished shards from disk and
// dispatches only the remainder (OPERATIONS.md §6).
//
// -workers is incompatible with -sweepworkers: remote daemons size their own
// engine pools, so combining the two flags is rejected.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"bfdn"
	"bfdn/internal/dsweep"
	"bfdn/internal/exp"
	"bfdn/internal/obs"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale      = flag.Int("scale", 1, "workload scale multiplier")
		seed       = flag.Int64("seed", 1, "workload seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "experiments to run concurrently")
		workers    = flag.Int("sweepworkers", 0, "sweep-engine workers per experiment (0 = GOMAXPROCS)")
		sweepStats = flag.Bool("sweepstats", false, "print per-sweep engine stats to stderr")
		metricsOut = flag.String("metrics", "", `dump suite-wide engine metrics in Prometheus text format ("-" = stderr)`)
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		fleet      = flag.String("workers", "", "comma-separated bfdnd base URLs: run a distributed sweep benchmark instead of the suite")
		registry   = flag.String("registry", "", "bfdnd registry base URL: fetch the live fleet from GET /v1/workers instead of -workers")
		store      = flag.String("store", "", "with -workers/-registry: journal the run into this job store directory so a crashed coordinator resumes instead of recomputing")
		hedge      = flag.Bool("hedge", false, "with -workers: hedge straggler tail shards on idle workers")
		traceOut   = flag.String("trace", "", `with -workers: dump the coordinator's spans as JSONL to this file ("-" = stderr)`)
	)
	flag.Parse()
	if *scale < 1 {
		return fmt.Errorf("need scale ≥ 1, got %d", *scale)
	}
	if *parallel < 1 {
		return fmt.Errorf("need -parallel ≥ 1, got %d", *parallel)
	}
	if *workers < 0 {
		return fmt.Errorf("need -sweepworkers ≥ 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	sweepworkersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sweepworkers" {
			sweepworkersSet = true
		}
	})
	if err := validateDistFlags(*fleet, *registry, *store, sweepworkersSet, *hedge); err != nil {
		return err
	}
	if *fleet != "" || *registry != "" {
		var urls []string
		if *fleet != "" {
			urls = strings.Split(*fleet, ",")
		} else {
			var err error
			if urls, err = dsweep.FetchWorkers(context.Background(), *registry); err != nil {
				return err
			}
			if len(urls) == 0 {
				return fmt.Errorf("registry %s reports an empty fleet (workers announce with bfdnd -announce %s -advertise <their-url>)", *registry, *registry)
			}
		}
		return runDistributed(urls, *scale, *seed, *hedge, *traceOut, *store)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := exp.Config{Seed: *seed, Scale: *scale, Workers: *workers}
	if *sweepStats {
		var mu sync.Mutex
		cfg.StatsSink = func(label string, s sweep.Stats) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "sweep %s: %s\n", label, s)
		}
	}
	// With -metrics, every sweep in the suite merges its point-latency
	// histograms and totals into one registry, dumped after the run.
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Recorder = sweep.NewRecorder(reg)
	}
	reports, err := exp.RunAllParallel(cfg, *parallel)
	if reg != nil {
		var w io.Writer = os.Stderr
		if *metricsOut != "-" {
			f, ferr := os.Create(*metricsOut)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			w = f
		}
		if werr := reg.WritePrometheus(w); werr != nil {
			return fmt.Errorf("write metrics: %w", werr)
		}
	}
	violations := 0
	for _, r := range reports {
		fmt.Printf("=== %s — %s ===\n", r.ID, r.Description)
		if *csv {
			fmt.Print(r.Table.CSV())
		} else {
			fmt.Print(r.Table.Render())
		}
		if r.Extra != "" && !*csv {
			fmt.Println()
			fmt.Print(r.Extra)
		}
		fmt.Printf("predictions: %d checked, %d violated\n", r.Outcome.Checks, r.Outcome.Violations)
		for _, note := range r.Outcome.Notes {
			fmt.Println("  VIOLATION:", note)
		}
		fmt.Println()
		violations += r.Outcome.Violations
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		runtime.GC()
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			return perr
		}
	}
	if err != nil {
		return fmt.Errorf("%d/%d experiments completed; failures:\n%w",
			len(reports), len(reports)+countJoined(err), err)
	}
	if violations > 0 {
		return fmt.Errorf("%d paper predictions violated", violations)
	}
	fmt.Println("all paper predictions hold")
	return nil
}

// validateDistFlags rejects flag combinations that silently do nothing:
// -sweepworkers tunes the local engine, which a distributed run never starts
// (remote daemons size their own pools), -hedge and -store only mean anything
// with a fleet, and -workers/-registry are two sources for the same list.
func validateDistFlags(fleet, registry, store string, sweepworkersSet, hedge bool) error {
	if fleet != "" && registry != "" {
		return fmt.Errorf("-workers and -registry both name the fleet: use one (a static list, or a registry to fetch it from)")
	}
	if fleet == "" && registry == "" {
		if hedge {
			return fmt.Errorf("-hedge requires -workers or -registry (it hedges shards across a fleet)")
		}
		if store != "" {
			return fmt.Errorf("-store requires -workers or -registry (it journals a distributed run; local suite runs are not journaled)")
		}
		return nil
	}
	if sweepworkersSet {
		return fmt.Errorf("-sweepworkers cannot be combined with a distributed run: remote bfdnd instances size their own sweep pools (set -sweepworkers on each daemon instead)")
	}
	return nil
}

// distGrid is the distributed benchmark workload: families × robot counts,
// with the algorithm cycling so every point family/alg pair appears, scaled
// by repeating the grid at growing tree sizes with fresh tree seeds.
func distGrid(scale int) []bfdn.SweepSpec {
	families := []bfdn.Family{bfdn.FamilyPath, bfdn.FamilyBinary, bfdn.FamilySpider, bfdn.FamilyComb, bfdn.FamilyRandom}
	algs := []bfdn.Algorithm{bfdn.BFDN, bfdn.BFDNRecursive, bfdn.CTE, bfdn.DFS, bfdn.TreeMining, bfdn.Potential}
	ks := []int{1, 2, 4, 8}
	specs := make([]bfdn.SweepSpec, 0, scale*len(families)*len(ks))
	for rep := 0; rep < scale; rep++ {
		for fi, f := range families {
			for ki, k := range ks {
				specs = append(specs, bfdn.SweepSpec{
					Family:    f,
					N:         800 + 400*rep + 50*fi,
					TreeSeed:  int64(rep),
					K:         k,
					Algorithm: algs[(fi+ki)%len(algs)],
				})
			}
		}
	}
	return specs
}

// runDistributed dispatches the benchmark grid across the fleet, streaming
// merged lines to stdout as they become final. Ctrl-C cancels the run and
// every in-flight worker request. With traceOut set, the coordinator records
// the run as one trace (dispatch/retry/hedge spans, traceparent propagated
// to the workers) and dumps its spans as JSONL when the run ends.
func runDistributed(urls []string, scale int, seed int64, hedge bool, traceOut, storeDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	var encErr error
	opts := []bfdn.DistOption{
		bfdn.WithDistOnLine(func(l bfdn.DistLine) {
			if encErr == nil {
				encErr = enc.Encode(l)
			}
		}),
	}
	if hedge {
		opts = append(opts, bfdn.WithDistHedging())
	}
	if storeDir != "" {
		// The journal keys off the content-addressed plan, so resuming after
		// a crash is just rerunning the identical command: finished shards
		// replay from disk, the rest dispatch to whatever fleet is up now.
		js, err := bfdn.OpenJobStore(storeDir)
		if err != nil {
			return fmt.Errorf("open job store: %w", err)
		}
		opts = append(opts, bfdn.WithDistStore(js))
	}
	var tracer *tracing.Tracer
	if traceOut != "" {
		tracer = tracing.New(tracing.Config{})
		opts = append(opts, bfdn.WithDistTracer(tracer))
	}
	_, stats, err := bfdn.SweepDistributed(ctx, distGrid(scale), urls, seed, opts...)
	if err != nil {
		return fmt.Errorf("distributed sweep: %w", err)
	}
	if encErr != nil {
		return fmt.Errorf("write output: %w", encErr)
	}
	fmt.Fprintln(os.Stderr, "distributed sweep:", stats)
	if stats.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "resumed: %d of %d points replayed from the journal\n", stats.Replayed, stats.Points)
	}
	if tracer != nil {
		if err := dumpTrace(tracer, traceOut); err != nil {
			return err
		}
	}
	return nil
}

// dumpTrace writes the coordinator tracer's spans as JSONL to path ("-" =
// stderr): the coordinator half of a fleet trace, joined with the workers'
// GET /debug/traces exports by trace ID.
func dumpTrace(tr *tracing.Tracer, path string) error {
	if path == "-" {
		return tr.WriteJSONL(os.Stderr, tracing.TraceID{})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f, tracing.TraceID{}); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}

// countJoined reports how many errors err bundles (errors.Join exposes them
// via Unwrap() []error; a plain error counts as one).
func countJoined(err error) int {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return len(u.Unwrap())
	}
	return 1
}
