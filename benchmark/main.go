// Command benchmark is the repository's one measuring stick: the paper's
// six applications on out-of-L2 graphs, and the real ligra-serve binary
// over loopback HTTP, with per-layer attribution from a separate traced
// pass. BENCHMARK.json (repo root) is the contract: it names the
// workloads, every end-to-end metric with its regression bound, and every
// per-layer metric; README.md in this directory is the catalogue.
//
//	go run -C benchmark . --workload serve-hot --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -repeat 5 -out out/a.json        # every workload, 5 seeds, both passes
//	go run -C benchmark . compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is everything one pass of one workload needs.
type runConfig struct {
	workload string
	root     string // repo checkout root (holds BENCHMARK.json)
	seed     uint64
	seconds  float64
	traced   bool
	sz       sizes
	bins     *binaries
}

// sizes are the input sizes; smokeSizes shrinks them for the smoke test.
type sizes struct {
	appsRMATScale int // apps-rmat: 2^scale vertices, ~16 edges per vertex
	gridSide      int // apps-grid: side^3 torus
	serveScale    int // serve-*: rMat scale of the hosted graph
	hotKeys       int // serve-hot: distinct cached keys
	setupReps     int // how many times set-up is repeated for its median
}

var (
	fullSizes  = sizes{appsRMATScale: 18, gridSide: 64, serveScale: 16, hotKeys: 64, setupReps: 3}
	smokeSizes = sizes{appsRMATScale: 10, gridSide: 10, serveScale: 10, hotKeys: 16, setupReps: 1}
)

// runResult is one pass of one workload: the contract's four keys plus
// what the result file and `compare` need to tell runs apart.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       int                    `json:"trace"`
	RequestHash string                 `json:"request_hash"`
	Samples     int                    `json:"samples"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       []string               `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back before its metric set is checked
// against BENCHMARK.json.
type outcome struct {
	values      map[string]float64
	attempted   int
	failed      int
	samples     int // latency samples behind the percentiles
	requestHash string
	notes       []string // first few check failures, for the human reader
}

type workloadFunc func(ctx context.Context, rc runConfig) (outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"apps-rmat":      func(ctx context.Context, rc runConfig) (outcome, error) { return runApps(ctx, rc, "rmat") },
	"apps-grid":      func(ctx context.Context, rc runConfig) (outcome, error) { return runApps(ctx, rc, "grid") },
	"serve-hot":      func(ctx context.Context, rc runConfig) (outcome, error) { return runServe(ctx, rc, planHot) },
	"serve-traverse": func(ctx context.Context, rc runConfig) (outcome, error) { return runServe(ctx, rc, planTraverse) },
	"serve-mixed":    func(ctx context.Context, rc runConfig) (outcome, error) { return runServe(ctx, rc, planMixed) },
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	var (
		workloads  = flag.String("workload", "", "comma-separated workloads to run (default: all in BENCHMARK.json)")
		seed       = flag.Uint64("seed", 1, "workload seed; pass i of -repeat uses seed+i")
		seconds    = flag.Float64("seconds", 0, "timed window per pass in seconds (default: run_seconds from BENCHMARK.json; 1 with -smoke)")
		trace      = flag.String("trace", "both", "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), both = one after the other")
		repeat     = flag.Int("repeat", 1, "full passes over the selected workloads, one seed each; medians and quartiles are reported")
		smoke      = flag.Bool("smoke", false, "tiny inputs and 1 s windows: exercises every code path, measures nothing")
		out        = flag.String("out", "", "write the result file (environment stamp + every run) here")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile per workload to <path>.<workload>; for serve-* this profiles the load generator, not the server")
		memprofile = flag.String("memprofile", "", "write a heap profile per workload to <path>.<workload>; same caveat as -cpuprofile")
		timeout    = flag.Duration("timeout", 170*time.Second, "hard limit per pass: children are killed and the process exits 2")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fail("unexpected argument %q", flag.Arg(0))
	}

	root, err := findRoot()
	if err != nil {
		return fail("%v", err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail("%v", err)
	}
	names := spec.workloadNames()
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	for _, n := range names {
		if _, ok := workloadFuncs[n]; !ok || !spec.hasWorkload(n) {
			return fail("unknown workload %q (BENCHMARK.json has %v)", n, spec.workloadNames())
		}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fail("-trace must be 0, 1 or both")
	}
	sz := fullSizes
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		sz = smokeSizes
		*seconds = 1
	}

	// The benchmark measures the machine it is on: every core, nothing tuned.
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Children must not outlive us on any exit path: defer covers returns
	// and panics on this goroutine, the handler covers signals, and each
	// child is additionally tied to our lifetime by the kernel (proc.go).
	defer stopAllChildren()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		stopAllChildren()
		os.Exit(2)
	}()

	bins, err := buildBinaries(root, names)
	if err != nil {
		return fail("%v", err)
	}

	file := resultFile{Env: stampEnv(root), Claim: nil}
	exit := 0
	for i := 0; i < *repeat; i++ {
		for _, name := range names {
			for _, traced := range passes {
				rc := runConfig{workload: name, root: root, seed: *seed + uint64(i), seconds: *seconds, traced: traced, sz: sz, bins: bins}
				res, err := runOne(spec, name, rc, *timeout, *cpuprofile, *memprofile)
				if err != nil {
					return fail("%s: %v", name, err)
				}
				file.Runs = append(file.Runs, res)
				printTable(res)
				// The contract line: exactly these four keys, last on stdout.
				line, _ := json.Marshal(struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}{res.Correct, res.Attempted, res.Failed, res.Metrics})
				fmt.Println(string(line))
				if !res.Correct {
					exit = 1
				}
			}
		}
	}
	if *repeat > 1 {
		printSummary(spec, file.Runs)
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return fail("%v", err)
		}
	}
	return exit
}

// runOne executes one pass under the hard timeout and turns its outcome
// into a result whose metric set is exactly the one BENCHMARK.json lists
// for that pass.
func runOne(spec *benchSpec, name string, rc runConfig, timeout time.Duration, cpuprofile, memprofile string) (runResult, error) {
	watchdog := time.AfterFunc(timeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded -timeout %v; killing children\n", name, timeout)
		stopAllChildren()
		os.Exit(2)
	})
	defer watchdog.Stop()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile + "." + name)
		if err != nil {
			return runResult{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return runResult{}, err
		}
		defer pprof.StopCPUProfile()
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	oc, err := workloadFuncs[name](ctx, rc)
	if err != nil {
		return runResult{}, err
	}
	if memprofile != "" {
		f, err := os.Create(memprofile + "." + name)
		if err != nil {
			return runResult{}, err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return runResult{}, err
		}
	}
	listed := spec.EndToEnd
	if rc.traced {
		listed = spec.PerLayer
	}
	metrics, err := spec.render(listed, oc.values, rc.traced)
	if err != nil {
		return runResult{}, err
	}
	traceFlag := 0
	if rc.traced {
		traceFlag = 1
	}
	return runResult{
		Workload: name, Seed: rc.seed, Trace: traceFlag,
		RequestHash: oc.requestHash, Samples: oc.samples,
		Correct: oc.failed == 0 && oc.attempted > 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: metrics, Notes: oc.notes,
	}, nil
}

// printTable writes one pass's metrics for the human reader (stderr, so
// stdout's last line stays the contract's JSON object).
func printTable(r runResult) {
	pass := "untraced"
	if r.Trace == 1 {
		pass = "traced"
	}
	fmt.Fprintf(os.Stderr, "\n== %s seed=%d %s: attempted=%d failed=%d samples=%d requests=%s\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.Samples, r.RequestHash)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if r.Trace == 1 && m.Value == 0 {
			continue // layers this workload does not touch
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(os.Stderr, "  - %s\n", note)
	}
}

// printSummary reports, per (workload, end-to-end metric), the median and
// quartiles over the repeated passes and the spread the acceptance rule
// looks at: (Q3 - Q1) / median against the metric's bound.
func printSummary(spec *benchSpec, runs []runResult) {
	fmt.Fprintf(os.Stderr, "\n== summary over seeds (end-to-end metrics; spread = IQR/median)\n")
	fmt.Fprintf(os.Stderr, "  %-16s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			vals := metricSeries(runs, w, m.Name)
			if len(vals) < 2 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			fmt.Fprintf(os.Stderr, "  %-16s %-20s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%\n",
				w, m.Name, q1, med, q3, 100*(q3-q1)/med, 100*m.Bound)
		}
	}
}

// metricSeries collects one end-to-end metric's values over the untraced
// runs of one workload.
func metricSeries(runs []runResult, workload, metric string) []float64 {
	var vals []float64
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return vals
}

// findRoot locates the checkout root: `go run -C benchmark .` starts us in
// benchmark/, `go test` too, and a built binary may be run from the root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, cand := range []string{dir, filepath.Dir(dir)} {
		if _, err := os.Stat(filepath.Join(cand, "BENCHMARK.json")); err == nil {
			return cand, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent", dir)
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}
