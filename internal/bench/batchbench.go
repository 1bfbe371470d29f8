package bench

import (
	"context"
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
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
// rows that bracket it are the evidence for batch.SweepCrossover. The
// point-query rows then time K plain reach and landmarks queries, each a
// search from both ends, against one sweep that records every target as
// a probe: the evidence that neither rides a sweep.
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
	if err := w.Flush(); err != nil {
		return err
	}
	return batchPoint(cfg, g)
}

// batchPoint is Batch's point-query table: for reach and for landmarks
// lists of 4 and of MaxLandmarks, K plain runs of the query against one
// ClusterBFS sweep from the K sources that records every query's targets
// as probes, the sweep the collector would run for them.
func batchPoint(cfg Config, g graph.View) error {
	n := g.NumVertices()
	ctx := context.Background()
	fmt.Fprintln(cfg.Out, "  point queries (milliseconds): plain = K runs (each a search from both ends); batched = one sweep probing every query's targets")
	w := cfg.tab()
	fmt.Fprintln(w, "query\tK\tplain\tbatched\tspeedup")
	for _, q := range []struct {
		name    string
		algo    string
		targets int
	}{{"reach", "reach", 1}, {"landmarks4", "landmarks", 4}, {"landmarks64", "landmarks", algo.MaxLandmarks}} {
		r, _ := algo.FindRunner(q.algo)
		for _, k := range []int{12, 64} {
			if cfg.budgetExhausted(w) {
				break
			}
			if k >= n {
				fmt.Fprintf(w, "%s\t%d\t[skipped: graph has only %d vertices]\n", q.name, k, n)
				continue
			}
			// Sources spread as above; targets scattered by a
			// multiplicative hash, as a client's would be.
			params := make([]algo.Params, k)
			sources := make([]uint32, k)
			var probes []uint32
			for i := range params {
				sources[i] = uint32(i * (n - 1) / k)
				targets := make([]uint32, q.targets)
				for j := range targets {
					targets[j] = uint32(uint64(i*q.targets+j+1) * 2654435761 % uint64(n))
				}
				probes = append(probes, targets...)
				params[i] = algo.Params{Source: sources[i], Target: targets[0]}
				if q.algo == "landmarks" {
					params[i].Landmarks = targets
				}
			}
			plain := func() {
				for _, p := range params {
					if _, err := r.Run(ctx, g, p); err != nil {
						panic(fmt.Errorf("batch bench %s: %w", q.name, err))
					}
				}
			}
			batched := func() {
				if _, err := algo.ClusterBFSCtx(ctx, g, sources, algo.ClusterBFSOptions{Probes: probes}); err != nil {
					panic(fmt.Errorf("batch bench %s sweep: %w", q.name, err))
				}
			}
			tp := Measure(cfg.rounds(), plain)
			tb := Measure(cfg.rounds(), batched)
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2fx\n", q.name, k, tp.Median.Seconds()*1e3, tb.Median.Seconds()*1e3,
				tp.Median.Seconds()/tb.Median.Seconds())
			cfg.record(fmt.Sprintf("batch/%s-k%d-plain", q.name, k), tp.Median.Seconds())
			cfg.record(fmt.Sprintf("batch/%s-k%d-batched", q.name, k), tb.Median.Seconds())
		}
	}
	return w.Flush()
}
