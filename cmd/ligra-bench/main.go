// ligra-bench regenerates the tables and figures of the Ligra paper's
// evaluation at container scale. Each -experiment ID corresponds to a row
// of DESIGN.md's per-experiment index:
//
//	table1        input graphs (paper Table 1)
//	table2        running times: serial vs Ligra 1-worker vs P-worker (Table 2)
//	scalability   time vs worker count per application (speedup figures)
//	frontier      per-round BFS frontier size and sparse/dense decision
//	threshold     edgeMap switch-threshold sensitivity sweep
//	denseforward  read-based vs write-based dense traversal
//	compress      Ligra+ byte-compression space/time ablation
//	hotpath       edgeMap hot-path timings (the BENCH_baseline.json suite)
//	scheduler     worker-pool scheduler: small-round workloads with their
//	              one-chunk round and dispatch counters
//	all           everything above, in order
//
// -json writes a machine-readable report; -against FILE compares the
// current run's measurements to a previously written report and warns
// when any is more than -drift-tolerance slower (default 10%, see
// docs/PERFORMANCE.md). -against-strict turns those warnings into a
// non-zero exit, for CI smoke gates with a suitably generous tolerance:
//
//	ligra-bench -experiment hotpath -scale 16 -json BENCH_baseline.json
//	ligra-bench -experiment hotpath -scale 16 -against BENCH_baseline.json
//	ligra-bench -experiment hotpath -against BENCH_baseline.json -against-strict -drift-tolerance 3.0
//
// Usage:
//
//	ligra-bench -experiment all -scale 15 -rounds 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ligra/internal/bench"
	"ligra/internal/core"
	"ligra/internal/parallel"
)

// defaultDriftTolerance is the -against warning threshold: measurements
// more than 10% slower than their baseline are flagged. Override with
// -drift-tolerance.
const defaultDriftTolerance = 0.10

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ligra-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ligra-bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment ID or 'all': "+strings.Join(bench.ExperimentOrder(), " | "))
		scale      = fs.Int("scale", 14, "synthetic graph scale (~2^scale vertices)")
		rounds     = fs.Int("rounds", 3, "timed repetitions per measurement (median reported)")
		maxProcs   = fs.Int("maxprocs", 0, "largest worker count in the scalability sweep (0 = GOMAXPROCS; per-call leases clamp at GOMAXPROCS)")
		budget     = fs.Duration("budget", 0, "wall-clock budget for the whole run (0 = none); experiments stop between measurements when it expires and report partial tables")
		jsonPath   = fs.String("json", "", "also write machine-readable results (per-measurement times, traversal counters, graph sizes, GOMAXPROCS) to this path")
		against    = fs.String("against", "", "baseline JSON report to compare this run to; warns when a measurement drifts past -drift-tolerance")
		strict     = fs.Bool("against-strict", false, "exit non-zero when any -against measurement regressed past -drift-tolerance (CI gate; pair with a generous tolerance on shared runners)")
		tolerance  = fs.Float64("drift-tolerance", defaultDriftTolerance, "fractional slowdown vs -against baseline that counts as a regression (0.10 = 10% slower)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var measurements []bench.JSONMeasurement
	cfg := bench.Config{
		Scale:    *scale,
		Rounds:   *rounds,
		MaxProcs: *maxProcs,
		Out:      stdout,
		Record: func(id string, seconds float64) {
			measurements = append(measurements, bench.JSONMeasurement{ID: id, Seconds: seconds})
		},
	}
	if *budget > 0 {
		cfg.Deadline = time.Now().Add(*budget)
	}

	ids := bench.ExperimentOrder()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	exps := bench.Experiments()
	statsBefore := core.SnapshotStats()
	schedBefore := parallel.SchedulerSnapshot()
	var timings []bench.JSONExperiment
	for i, id := range ids {
		runExp, ok := exps[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)",
				id, strings.Join(bench.ExperimentOrder(), ", "))
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if cfg.Expired() {
			fmt.Fprintf(stdout, "[budget exhausted: skipping %s and later experiments]\n", id)
			break
		}
		fmt.Fprintf(stdout, "=== %s ===\n", id)
		start := time.Now()
		if err := runExp(cfg); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		dur := time.Since(start)
		timings = append(timings, bench.JSONExperiment{ID: id, Seconds: dur.Seconds()})
		fmt.Fprintf(stdout, "[%s completed in %v]\n", id, dur.Round(time.Millisecond))
	}
	traversal := core.SnapshotStats().Sub(statsBefore)
	scheduler := parallel.SchedulerSnapshot().Sub(schedBefore)
	report := &bench.JSONReport{
		Timestamp:    time.Now().Format(time.RFC3339),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Scale:        *scale,
		Rounds:       *rounds,
		Experiments:  timings,
		Measurements: measurements,
		Traversal:    &traversal,
		Scheduler:    &scheduler,
	}
	if *jsonPath != "" {
		graphs, err := bench.SuiteInfo(*scale)
		if err != nil {
			return fmt.Errorf("json report: %w", err)
		}
		report.Graphs = graphs
		if err := report.WriteFile(*jsonPath); err != nil {
			return fmt.Errorf("json report: %w", err)
		}
		fmt.Fprintf(stdout, "\n[json results written to %s]\n", *jsonPath)
	}
	if *against != "" {
		warned, err := compare(stdout, *against, report, *tolerance)
		if err != nil {
			return err
		}
		if *strict && warned > 0 {
			return fmt.Errorf("%d measurement(s) regressed more than %.0f%% against %s",
				warned, *tolerance*100, *against)
		}
	}
	return nil
}

// compare prints the baseline comparison table and per-measurement
// regression warnings, returning how many measurements regressed past
// tolerance. By default regressions warn rather than fail — the
// comparison is a review aid, and CI environments are too noisy for a
// tight hard gate — but -against-strict promotes a non-zero count to a
// non-zero exit.
func compare(stdout io.Writer, baselinePath string, current *bench.JSONReport, tolerance float64) (int, error) {
	baseline, err := bench.ReadReport(baselinePath)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	deltas := bench.Compare(baseline, current)
	if len(deltas) == 0 {
		fmt.Fprintf(stdout, "\n[no timings in common with baseline %s — run the same -experiment set]\n", baselinePath)
		return 0, nil
	}
	fmt.Fprintf(stdout, "\ncomparison against %s (scale %d, %d-way):\n",
		baselinePath, baseline.Scale, baseline.GoMaxProcs)
	warned := 0
	for _, d := range deltas {
		verdict := fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
		if d.Regression(tolerance) {
			verdict += fmt.Sprintf("  WARNING: regression >%.0f%%", tolerance*100)
			warned++
		}
		fmt.Fprintf(stdout, "  %-28s %.4fs -> %.4fs  (%s)\n", d.ID, d.Base, d.Current, verdict)
	}
	if warned > 0 {
		fmt.Fprintf(stdout, "[%d measurement(s) regressed more than %.0f%% against baseline]\n", warned, tolerance*100)
	} else {
		fmt.Fprintf(stdout, "[no regressions beyond %.0f%% tolerance]\n", tolerance*100)
	}
	return warned, nil
}
