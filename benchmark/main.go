// Command bfdnbench is the repository benchmark. It drives the bfdn library,
// the bfdnd daemon and the distributed sweep coordinator through three named
// workloads from one process, checks every output, and prints one JSON
// result line.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload grid-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the workload.
// With --trace 1 a separate traced run times the benchmark's own calls into
// each layer's public functions, reports the per-layer metrics, and writes a
// span dump and a CPU profile under <dir>/trace/<workload>-<seed>/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// dir receives job stores (removed at exit), span dumps and profiles.
	dir string
	// threads bounds client goroutines and simulation threads (nproc).
	threads int
	size    sizes
}

// sizes are the input dimensions; the self-test shrinks them.
type sizes struct {
	gridRandomN, gridRandomD int
	gridCombN, gridCombD     int
	gridKs                   []int
	// daemon-mixed sweep requests carry minPoints..maxPoints points on
	// trees of minNodes..maxNodes nodes; explores run on exploreN nodes.
	minPoints, maxPoints int
	minNodes, maxNodes   int
	asyncPoints          int
	exploreN             int
	// fleet-dsweep plans run fleetN-node trees at every k in fleetKs.
	fleetN  int
	fleetKs []int
	// setupReps is how many times set-up is repeated (median reported);
	// ladderReps how often the traced run repeats a timed layer call.
	setupReps  int
	ladderReps int
}

var fullSize = sizes{
	gridRandomN: 50_000, gridRandomD: 40,
	gridCombN: 20_000, gridCombD: 200, // comb with about 20k nodes and D = 297
	gridKs:    []int{8, 64},
	minPoints: 64, maxPoints: 256,
	minNodes: 300, maxNodes: 2_000,
	asyncPoints: 12,
	exploreN:    20_000,
	fleetN:      4_000,
	fleetKs:     []int{2, 4, 8, 16, 32, 64, 128},
	setupReps:   9,
	ladderReps:  3,
}

var tinySize = sizes{
	gridRandomN: 600, gridRandomD: 12,
	gridCombN: 400, gridCombD: 20,
	gridKs:    []int{2, 8},
	minPoints: 4, maxPoints: 8,
	minNodes: 40, maxNodes: 120,
	asyncPoints: 3,
	exploreN:    500,
	fleetN:      150,
	fleetKs:     []int{2, 16},
	setupReps:   2,
	ladderReps:  1,
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	c := config{threads: runtime.NumCPU(), size: fullSize}
	var seconds float64
	var traced int
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&c.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measurement window in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&c.dir, "dir", ".bench_build", "directory for job stores, span dumps and profiles")
	flag.Parse()
	if seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "bfdnbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	c.window = time.Duration(seconds * float64(time.Second))
	c.trace = traced == 1

	res, detail, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfdnbench:", err)
		os.Exit(1)
	}
	for _, e := range detail.Errors {
		fmt.Fprintln(os.Stderr, "bfdnbench: check failed:", e)
	}
	d, _ := json.Marshal(detail)
	r, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", d, r)
	if !res.Correct {
		os.Exit(1)
	}
}

// detail is printed on the line before the result: the environment and the
// context the metrics need (sample counts, the tail percentile, output paths).
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Samples  map[string]float64 `json:"samples,omitempty"`
	PerSec   []float64          `json:"pointsPerSecByInterval,omitempty"`
	SetupS   []float64          `json:"setupS"`
	Spans    string             `json:"spans,omitempty"`
	Profile  string             `json:"cpuProfile,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

// run executes one invocation: set-up (repeated, median kept), then either
// the timed closed loop or the traced run, then the output checks.
func run(c config) (result, detail, error) {
	w, ok := workloadByName(c.workload)
	if !ok {
		return result{}, detail{}, fmt.Errorf("unknown workload %q (valid: %s)",
			c.workload, strings.Join(workloadNames(), ", "))
	}
	runDir := filepath.Join(c.dir, "run", fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, detail{}, err
	}
	defer os.RemoveAll(runDir)
	det := detail{Workload: c.workload, Seed: c.seed, Trace: c.trace, Env: readEnvironment(runDir)}
	g := &gate{}

	var inst instance
	for r := 0; r < c.size.setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(c, filepath.Join(runDir, fmt.Sprint("setup", r)), g)
		if err != nil {
			return result{}, detail{}, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		det.SetupS = append(det.SetupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	ctx := context.Background()
	metrics := map[string]metric{}
	if c.trace {
		outDir := filepath.Join(c.dir, "trace", fmt.Sprintf("%s-%d", c.workload, c.seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, detail{}, err
		}
		det.Profile = filepath.Join(outDir, "cpu.pprof")
		det.Spans = filepath.Join(outDir, "spans.jsonl")
		prof, err := os.Create(det.Profile)
		if err != nil {
			return result{}, detail{}, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return result{}, detail{}, err
		}
		tr := newTracer()
		rec := &recorder{tr: tr}
		rec.root = tr.start(0, "workload."+c.workload)
		inst.loop(ctx, time.Now().Add(c.window), rec, g)
		tr.end(rec.root)
		inst.verify(g)
		err = runLadder(ctx, c, inst.layers(), filepath.Join(runDir, "ladder"), tr, g, metrics)
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = tr.write(det.Spans)
		}
		if err != nil {
			return result{}, detail{}, err
		}
	} else {
		rec := &recorder{}
		rec.mark()
		inst.loop(ctx, time.Now().Add(c.window), rec, g)
		rss := peakRSSMiB()
		inst.verify(g)
		perSec, cpuMs := rec.intervals()
		if len(perSec) == 0 {
			return result{}, detail{}, fmt.Errorf("%s: no point completed in the window", c.workload)
		}
		first, last := rec.marks[0], rec.marks[len(rec.marks)-1]
		p, tail := tailPercentile(rec.jobMs)
		metrics["points_per_s"] = metric{median(perSec), "points/s"}
		metrics["cpu_ms_per_point"] = metric{median(cpuMs), "ms"}
		metrics["job_ms_p50"] = metric{median(rec.jobMs), "ms"}
		metrics["job_ms_tail"] = metric{tail, "ms"}
		metrics["first_line_ms_p50"] = metric{median(rec.firstMs), "ms"}
		metrics["setup_s"] = metric{median(det.SetupS), "s"}
		metrics["peak_rss_mb"] = metric{rss, "MiB"}
		det.PerSec = perSec
		det.Samples = map[string]float64{
			"points": float64(last.points), "intervals": float64(len(perSec)),
			"window_s": last.at.Sub(first.at).Seconds(), "cpu_s": (last.cpu - first.cpu).Seconds(),
			"jobs": float64(len(rec.jobMs)), "job_ms_tail_percentile": p,
		}
	}
	attempted, failed := g.attempted.Load(), g.failed.Load()
	if attempted == 0 {
		attempted = 1
		failed = 1
	}
	if c.trace {
		metrics["fail_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	}
	det.Errors = g.errors()
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, det, nil
}

// median returns the middle sample (mean of the two middle ones), 0 if none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile returns the highest percentile of xs that has at least ten
// samples beyond it, and its value. With ten samples or fewer no such
// percentile exists, and the maximum is returned as the 100th percentile.
func tailPercentile(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return 100, s[len(s)-1]
	}
	i := len(s) - 11
	return 100 * float64(i+1) / float64(len(s)), s[i]
}
