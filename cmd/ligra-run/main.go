// ligra-run executes one of the framework's algorithms on a graph loaded
// from a file or generated on the fly, reporting the result summary and
// wall time — the equivalent of running one of Ligra's application
// binaries.
//
// Usage:
//
//	ligra-run -algo bfs -graph rmat16.adj -s -source 0
//	ligra-run -algo pagerank -gen rmat -scale 16
//	ligra-run -algo bellman-ford -gen grid3d -scale 15 -weights 31
//	ligra-run -algo components -graph web.bin -mode sparse -rounds 5
//	ligra-run -algo bfs -gen rmat -scale 16 -stats
//
// -trace prints the per-round frontier/mode/duration table of the fastest
// repetition; -stats additionally prints that repetition's traversal and
// scheduler counters (see docs/PERFORMANCE.md §5).
//
// Exit status: 0 on success, 1 on load/usage error, 2 when -timeout
// expired and a partial result was reported; the final output line states
// which.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ligra"
	"ligra/internal/algo"
	"ligra/internal/gen"
)

// algoUsage lists the -algo values and which of them refuse a directed
// graph.
func algoUsage() string {
	var undirected []string
	for _, r := range algo.Runners() {
		if r.Undirected {
			undirected = append(undirected, r.Name)
		}
	}
	return "algorithm: " + strings.Join(algo.RunnerNames(), " | ") +
		" (undirected graphs only, exit 1 on a directed one: " + strings.Join(undirected, ", ") + ")"
}

// modeNames lists the -mode values, each traversal mode's wire name.
func modeNames() string {
	var names []string
	for m := ligra.Auto; m <= ligra.Forward; m++ {
		names = append(names, m.String())
	}
	return strings.Join(names, " | ")
}

func main() {
	os.Exit(exitStatus(run(os.Args[1:], os.Stdout), os.Stderr))
}

// exitStatus maps run's error to the documented exit codes, reporting the
// failure on w: 0 success, 2 timeout (deadline or cancellation after a
// partial result), 1 anything else.
func exitStatus(err error, w io.Writer) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		fmt.Fprintln(w, "ligra-run: timeout:", err)
		return 2
	default:
		fmt.Fprintln(w, "ligra-run:", err)
		return 1
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ligra-run", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		algoName  = fs.String("algo", "bfs", algoUsage())
		graphPath = fs.String("graph", "", "input graph file (AdjacencyGraph text, LIGRAGO1 binary, or LIGRAGC1 compressed; detected by content)")
		symmetric = fs.Bool("s", false, "treat a text-format input file as symmetric (Ligra's -s)")
		genFamily = fs.String("gen", "", "generate instead of load: rmat | grid3d | randlocal | twitter-sim")
		scale     = fs.Int("scale", 16, "generator scale (~2^scale vertices)")
		seed      = fs.Uint64("seed", 42, "generator seed")
		source    = fs.Int("source", -1, "source vertex (-1 = highest degree)")
		weights   = fs.Int("weights", 0, "attach hash weights in [1, W] (0 = keep input weights)")
		mode      = fs.String("mode", "auto", "edgeMap mode: "+modeNames())
		threshold = fs.Int64("threshold", 0, "edgeMap dense-switch threshold (0 = |E|/20)")
		rounds    = fs.Int("rounds", 1, "timed repetitions (fastest reported)")
		trace     = fs.Bool("trace", false, "print the per-round edgeMap trace of the fastest repetition")
		stats     = fs.Bool("stats", false, "print per-round dense/sparse decisions and the fastest repetition's traversal counters")
		compressG = fs.Bool("compress", false, "compress a CSR input in memory and run on the Ligra+ byte-compressed representation")
		mmapG     = fs.Bool("mmap", false, "memory-map a compressed (LIGRAGC1) -graph input instead of heap-loading it")
		procs     = fs.Int("procs", 0, "cap the computation's worker goroutines via a per-call lease (0 = no cap; caps at GOMAXPROCS, never raises)")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget for the computation (0 = none); on expiry the algorithm stops cooperatively, its partial result is reported, and the exit status is 2")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	runner, ok := algo.FindRunner(*algoName)
	if !ok {
		return algo.UnknownAlgoError(*algoName)
	}

	view, err := loadOrGenerate(*graphPath, *symmetric, *mmapG, *genFamily, *scale, *seed)
	if err != nil {
		return err
	}
	if g, ok := view.(*ligra.Graph); ok {
		if *weights > 0 {
			g = g.AddWeights(ligra.HashWeight(int32(*weights)))
			view = g
		}
		fmt.Fprintln(stdout, ligra.ComputeStats(g))
		if *compressG {
			c, err := ligra.Compress(g)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "compressed representation: %d bytes\n", c.SizeBytes())
			view = c
		}
	} else if c, ok := view.(*ligra.CompressedGraph); ok {
		// A compressed input cannot be re-weighted in place; weights must
		// be attached before compressing (ligra-gen -weights ... -format
		// compressed).
		if *weights > 0 {
			return errors.New("-weights requires a CSR input; regenerate the compressed file with weights instead")
		}
		fmt.Fprintf(stdout, "compressed graph (%s): n=%d m=%d weighted=%t symmetric=%t heap=%d mapped=%d bytes\n",
			c.FormatName(), c.NumVertices(), c.NumEdges(), c.Weighted(), c.Symmetric(),
			c.MemoryFootprint(), c.MappedBytes())
	}

	params := algo.Params{Mode: *mode, Threshold: *threshold}
	if err := params.Validate(); err != nil {
		return err
	}
	var tr *ligra.Trace
	if *trace || *stats {
		tr = &ligra.Trace{}
		params.EdgeMap.Trace = tr
	}

	src := uint32(0)
	if *source >= 0 {
		if *source >= view.NumVertices() {
			return fmt.Errorf("source %d out of range (n=%d)", *source, view.NumVertices())
		}
		src = uint32(*source)
	} else if src, err = algo.DefaultSource(context.Background(), view); err != nil {
		return err
	}

	reps := *rounds
	if reps < 1 {
		reps = 1
	}
	var ctx context.Context
	if *timeout > 0 {
		c, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx = c
	}
	if *procs > 0 {
		// A per-call lease: only this computation is capped.
		ctx = ligra.WithParallelism(ctx, *procs)
	}
	params.Source = src
	var best time.Duration
	var bestTrace []ligra.TraceEntry
	var bestStats ligra.TraversalStats
	var bestSched ligra.SchedulerStats
	var res algo.RunResult
	var interruptErr error
	done := 0
	for r := 0; r < reps; r++ {
		if tr != nil {
			// Each repetition traces into a fresh slice, so the fastest
			// one's rows are kept whole.
			tr.Entries = nil
		}
		statsBefore := ligra.SnapshotTraversalStats()
		schedBefore := ligra.SnapshotSchedulerStats()
		start := time.Now()
		var err error
		res, err = runner.Run(ctx, view, params)
		if d := time.Since(start); r == 0 || d < best {
			// The counters, like the trace, are the fastest repetition's.
			best = d
			bestStats = ligra.SnapshotTraversalStats().Sub(statsBefore)
			bestSched = ligra.SnapshotSchedulerStats().Sub(schedBefore)
			if tr != nil {
				bestTrace = tr.Entries
			}
		}
		done = r + 1
		if err != nil {
			var re *ligra.RoundError
			if errors.As(err, &re) &&
				(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				fmt.Fprintf(stdout, "interrupted: %v\n", err)
				interruptErr = err
				break
			}
			return err
		}
	}
	if interruptErr != nil {
		fmt.Fprintf(stdout, "partial result: %s\n", res.Summary)
	} else {
		fmt.Fprintln(stdout, res.Summary)
	}
	fmt.Fprintf(stdout, "time: %v (best of %d)\n", best, done)
	if tr != nil {
		fmt.Fprintf(stdout, "%5s  %10s  %10s  %-13s  %10s  %8s\n", "round", "|frontier|", "outdegrees", "mode", "output", "ms")
		for _, e := range bestTrace {
			fmt.Fprintf(stdout, "%5d  %10d  %10d  %-13s  %10d  %8.3f\n",
				e.Round, e.FrontierSize, e.OutDegrees, e.Mode, e.OutputSize, float64(e.Duration)/float64(time.Millisecond))
		}
	}
	if *stats {
		d := bestStats
		fmt.Fprintf(stdout, "traversal stats: calls=%d sparse=%d dense=%d dense-forward=%d seq-rounds=%d\n",
			d.Calls, d.Sparse, d.Dense, d.DenseForward, d.SeqRounds)
		fmt.Fprintf(stdout, "                 frontier-vertices=%d output-vertices=%d edges-weighed=%d\n",
			d.FrontierVertices, d.OutputVertices, d.EdgesScanned)
		s := bestSched
		fmt.Fprintf(stdout, "scheduler: dispatches=%d inline=%d cutoff=%d parks=%d wakes=%d pool-workers=%d\n",
			s.Dispatches, s.InlineRuns, s.CutoffRuns, s.Parks, s.Wakes, s.PoolWorkers)
	}
	if interruptErr != nil {
		fmt.Fprintln(stdout, "status: timeout (exit 2)")
		return interruptErr
	}
	fmt.Fprintln(stdout, "status: ok")
	return nil
}

func loadOrGenerate(path string, symmetric, mmap bool, family string, scale int, seed uint64) (ligra.View, error) {
	switch {
	case path != "":
		return ligra.Load(path, ligra.LoadOptions{Symmetric: symmetric, MMap: mmap})
	case mmap:
		return nil, errors.New("-mmap requires a -graph file in the compressed (LIGRAGC1) format")
	case family != "":
		return gen.Family(family, scale, seed)
	default:
		return nil, fmt.Errorf("provide -graph FILE or -gen FAMILY")
	}
}
