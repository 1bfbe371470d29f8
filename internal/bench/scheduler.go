package bench

import (
	"context"
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/parallel"
)

// Scheduler times the workloads the persistent worker-pool scheduler and
// edgeMap's one-chunk small rounds were built for: iterative algorithms
// with many tiny rounds, where per-round dispatch overhead — not edge
// work — sets the floor. The high-diameter 3d-grid runs BFS for ~O(n^1/3)
// rounds with small frontiers throughout; rMat BFS is the low-diameter
// contrast where only the first and last rounds are tiny. Bellman-Ford on
// the weighted grid no longer multiplies the grid's rounds: its block
// drain (DESIGN.md §5a) settles most of each round inside 2^15-vertex
// blocks, so it runs about ten rounds at side 64, and fewer where the
// grid spans only a block or two. BENCH_baseline.json's
// scheduler/BellmanFord-3dgrid row predates the drain.
//
// Alongside the timing the experiment prints the per-run traversal
// rounds, how many of them ran as one chunk on the calling goroutine
// (TraversalStats.SeqRounds), and the scheduler's dispatch/inline counter
// deltas. Timings are recorded (Config.Record) as scheduler/<id>.
func Scheduler(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	gridIn, err := FindInput(suite, "3d-grid")
	if err != nil {
		return err
	}
	grid, err := gridIn.Build()
	if err != nil {
		return err
	}
	rmatIn, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	rmat, err := rmatIn.Build()
	if err != nil {
		return err
	}
	wgrid := WeightGraph(grid)
	gridSrc, rmatSrc := Source(grid), Source(rmat)

	fmt.Fprintf(cfg.Out, "Scheduler: small-round workloads (seconds, median of %d; pool workers=%d)\n",
		cfg.rounds(), parallel.SchedulerSnapshot().PoolWorkers)
	fmt.Fprintln(cfg.Out, "  seq rounds = sparse rounds with |U|+outDeg(U) <= 1024, run as one chunk on the caller")

	workloads := []struct {
		id  string
		run func()
	}{
		{"BFS-3dgrid", func() { must(algo.BFSCtx(context.Background(), grid, gridSrc, core.Options{})) }},
		{"BellmanFord-3dgrid", func() { must(algo.BellmanFordCtx(context.Background(), wgrid, gridSrc, core.Options{})) }},
		{"BFS-rMat", func() { must(algo.BFSCtx(context.Background(), rmat, rmatSrc, core.Options{})) }},
	}
	w := cfg.tab()
	fmt.Fprintln(w, "Workload\tmedian\trounds\tseq rounds\tdispatches\tinline")
	for _, wl := range workloads {
		if cfg.budgetExhausted(w) {
			break
		}
		tBefore := core.SnapshotStats()
		sBefore := parallel.SchedulerSnapshot()
		tm := Measure(cfg.rounds(), wl.run)
		tDelta := core.SnapshotStats().Sub(tBefore)
		sDelta := parallel.SchedulerSnapshot().Sub(sBefore)

		rounds := int64(cfg.rounds())
		fmt.Fprintf(w, "%s\t%.4f\t%d\t%d\t%d\t%d\n",
			wl.id, tm.Median.Seconds(),
			tDelta.Calls/rounds, tDelta.SeqRounds/rounds,
			sDelta.Dispatches/rounds, sDelta.InlineRuns/rounds)
		cfg.record("scheduler/"+wl.id, tm.Median.Seconds())
	}
	return w.Flush()
}
