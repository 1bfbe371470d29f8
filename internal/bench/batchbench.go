package bench

import (
	"context"
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
)

// Batch times K concurrent distinct-source BFS queries answered the way
// the serving path does without the batch collector — K independent
// single-source sweeps, each producing the bfs runner's result — versus
// as one bit-parallel ClusterBFS sweep with K visit-word bits (exactly
// what batch.ClusterRun executes: per-source reach counts and depths,
// no level matrix). Besides wall time it reports the edges_scanned
// ratio from the traversal counters: the batched sweep visits each
// frontier vertex's edges once per round it is live for ANY source,
// instead of once per source, which is the whole point of the
// subsystem (the acceptance bar is >=4x fewer edges at K=32 on rMat).
// The K list straddles the point where the sweep starts to pay: the two
// rows that bracket it are the evidence for batch.SweepCrossover.
func Batch(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	n := g.NumVertices()
	ctx := context.Background()

	fmt.Fprintf(cfg.Out, "Batched multi-source BFS on %s (n=%d, m=%d; seconds, median of %d)\n",
		in.Name, n, g.NumEdges(), cfg.rounds())
	fmt.Fprintln(cfg.Out, "  unbatched = K independent single-source sweeps; batched = one ClusterBFS sweep, K visit-word bits")
	w := cfg.tab()
	fmt.Fprintln(w, "K\tunbatched\tbatched\tspeedup\tedges(unbatched)\tedges(batched)\tedge ratio")
	for _, k := range []int{2, 4, 8, 12, 16, 32, 64} {
		if cfg.budgetExhausted(w) {
			break
		}
		if k >= n {
			fmt.Fprintf(w, "%d\t[skipped: graph has only %d vertices]\n", k, n)
			continue
		}
		// K distinct sources spread across the ID space, deterministic
		// so reruns compare like with like.
		sources := make([]uint32, k)
		for i := range sources {
			sources[i] = uint32(i * (n - 1) / k)
		}
		unbatched := func() {
			for _, s := range sources {
				if _, err := algo.BFSCtx(ctx, g, s, core.Options{}); err != nil {
					panic(fmt.Errorf("batch bench unbatched bfs: %w", err))
				}
			}
		}
		batched := func() {
			if _, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{}); err != nil {
				panic(fmt.Errorf("batch bench clusterbfs: %w", err))
			}
		}
		// One untimed run of each variant isolates its edges_scanned
		// delta before the timed repetitions pollute the counters.
		pre := core.SnapshotStats()
		unbatched()
		uEdges := core.SnapshotStats().Sub(pre).EdgesScanned
		pre = core.SnapshotStats()
		batched()
		bEdges := core.SnapshotStats().Sub(pre).EdgesScanned

		tu := Measure(cfg.rounds(), unbatched)
		tb := Measure(cfg.rounds(), batched)
		ratio := 0.0
		if bEdges > 0 {
			ratio = float64(uEdges) / float64(bEdges)
		}
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.2fx\t%d\t%d\t%.2fx\n",
			k, tu.Median.Seconds(), tb.Median.Seconds(),
			tu.Median.Seconds()/tb.Median.Seconds(), uEdges, bEdges, ratio)
		cfg.record(fmt.Sprintf("batch/k%d-unbatched", k), tu.Median.Seconds())
		cfg.record(fmt.Sprintf("batch/k%d-batched", k), tb.Median.Seconds())
	}
	return w.Flush()
}
