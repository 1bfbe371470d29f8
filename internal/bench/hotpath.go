package bench

import (
	"context"
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
)

// HotPath times the edgeMap hot path on the rMat input: the traversals
// whose cost the frontier representation dominates. It is the experiment
// behind BENCH_baseline.json and the ligra-bench -against comparison mode
// — each measurement is recorded individually (Config.Record), so a future
// run can state its per-workload delta instead of a whole-suite wall time.
//
// Workloads:
//
//	BFS            direction-optimizing BFS (sparse and dense rounds mix)
//	BFS-sparse     BFS forced sparse — isolates the push path and the
//	               sparse output-frontier construction
//	Components     label propagation — dense early rounds, long sparse tail
//	               with RemoveDuplicates on every round
//	PageRank1      one forced-dense power iteration — isolates the pull
//	               path over every in-edge
//	Radii          the paper's 64-source eccentricity estimate — dense
//	               ClusterBFS sweeps with the saturation exit
//	ClusterBFS-K*  one batched sweep at the serving batch sizes 2 and 64
//
// Alongside each timing the experiment prints the traversal counter delta
// (calls, dense/sparse split, frontier out-edges weighed), so a perf diff
// can be attributed: same decisions but faster rounds, or different
// decisions.
func HotPath(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	in, err := FindInput(suite, "rMat")
	if err != nil {
		return err
	}
	g, err := in.Build()
	if err != nil {
		return err
	}
	src := pickSource(g)
	fmt.Fprintf(cfg.Out, "EdgeMap hot path on %s (n=%d, m=%d; seconds, median of %d)\n",
		in.Name, g.NumVertices(), g.NumEdges(), cfg.rounds())

	type workload struct {
		id  string
		run func()
	}
	// 64 distinct sources spread across the ID space, as in the batch
	// experiment.
	sources := make([]uint32, algo.MaxClusterSources)
	for i := range sources {
		sources[i] = uint32(i * (g.NumVertices() - 1) / len(sources))
	}
	workloads := []workload{
		{"BFS", func() { must(algo.BFSCtx(context.Background(), g, src, core.Options{})) }},
		{"BFS-sparse", func() { must(algo.BFSCtx(context.Background(), g, src, core.Options{Mode: core.Sparse})) }},
		{"Components", func() { must(algo.ConnectedComponentsCtx(context.Background(), g, core.Options{})) }},
		{"PageRank1", func() {
			must(algo.PageRankCtx(context.Background(), g, algo.PageRankOptions{
				Damping: 0.85, MaxIterations: 1,
				EdgeMap: core.Options{Mode: core.Pull},
			}))
		}},
		{"Radii", func() { must(algo.RadiiCtx(context.Background(), g, algo.DefaultRadiiOptions())) }},
		{"ClusterBFS-K2", func() { must(algo.ClusterBFSCtx(context.Background(), g, sources[:2], algo.ClusterBFSOptions{})) }},
		{"ClusterBFS-K64", func() { must(algo.ClusterBFSCtx(context.Background(), g, sources, algo.ClusterBFSOptions{})) }},
	}
	w := cfg.tab()
	fmt.Fprintln(w, "Workload\tmedian\tmin\tcalls\tsparse\tdense\tfwd\tedges weighed")
	for _, wl := range workloads {
		if cfg.budgetExhausted(w) {
			break
		}
		before := core.SnapshotStats()
		tm := Measure(cfg.rounds(), wl.run)
		delta := core.SnapshotStats().Sub(before)
		rounds := int64(cfg.rounds())
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%d\t%d\t%d\t%d\t%d\n",
			wl.id, tm.Median.Seconds(), tm.Min.Seconds(),
			delta.Calls/rounds, delta.Sparse/rounds, delta.Dense/rounds,
			delta.DenseForward/rounds, delta.EdgesScanned/rounds)
		cfg.record("hotpath/"+wl.id, tm.Median.Seconds())
	}
	return w.Flush()
}
