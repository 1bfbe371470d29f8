// ligra-bench regenerates the tables and figures of the Ligra paper's
// evaluation at container scale, plus the sweeps behind the constants the
// runtime picks. Each -experiment ID corresponds to a row of DESIGN.md's
// per-experiment index:
//
//	table1        input graphs (paper Table 1)
//	table2        running times: serial vs Ligra 1-worker vs P-worker (Table 2)
//	scalability   time vs worker count per application (speedup figures)
//	frontier      per-round BFS frontier size and sparse/dense decision
//	threshold     edgeMap switch-threshold sensitivity sweep
//	denseforward  read-based vs write-based dense traversal
//	scheduler     worker-pool scheduler: small-round workloads with their
//	              one-chunk round and dispatch counters
//	batch         batched ClusterBFS sweep vs K single BFSes (the
//	              batch.SweepCrossover evidence)
//	all           everything above, in order
//
// -json writes a machine-readable report of the run: per-measurement
// times, traversal and scheduler counters, graph sizes and GOMAXPROCS.
// It is a trajectory record, not a gate; regressions are judged by the
// benchmark/ module (docs/PERFORMANCE.md).
//
// Usage:
//
//	ligra-bench -experiment all -scale 15 -rounds 3
//	ligra-bench -experiment scheduler,batch -scale 16 -rounds 9 -json BENCH_baseline.json
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
	if *jsonPath == "" {
		return nil
	}
	traversal := core.SnapshotStats().Sub(statsBefore)
	scheduler := parallel.SchedulerSnapshot().Sub(schedBefore)
	graphs, err := bench.SuiteInfo(*scale)
	if err != nil {
		return fmt.Errorf("json report: %w", err)
	}
	report := &bench.JSONReport{
		Timestamp:    time.Now().Format(time.RFC3339),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Scale:        *scale,
		Rounds:       *rounds,
		Graphs:       graphs,
		Experiments:  timings,
		Measurements: measurements,
		Traversal:    &traversal,
		Scheduler:    &scheduler,
	}
	if err := report.WriteFile(*jsonPath); err != nil {
		return fmt.Errorf("json report: %w", err)
	}
	fmt.Fprintf(stdout, "\n[json results written to %s]\n", *jsonPath)
	return nil
}
