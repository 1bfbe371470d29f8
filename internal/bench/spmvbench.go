package bench

import (
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/spmv"
)

// SpMV races the two execution backends — edgeMap traversal versus the
// GraphBLAS-style semiring kernel — on BFS, the one algorithm with an spmv
// kernel, across both suite shapes (the scale-free rMat and the
// high-diameter 3d-grid). For each graph it:
//
//   - cross-validates the backends once, un-timed: they must agree on
//     rounds and visited count — the identity contract that lets the
//     result cache ignore the backend
//   - times three variants: backend=edgemap, backend=spmv, and
//     backend=auto (ResolveBackend dispatch + the chosen kernel, exactly
//     the runner's auto path), recording each as
//     "spmv/BFS-<graph>-<backend>"
//
// The auto column should track min(edgemap, spmv) to within dispatch
// overhead; a larger gap means the auto heuristic picked the losing
// backend for that shape. PageRank and triangles are not raced: backend
// "spmv" runs the same code as "edgemap" for both.
func SpMV(cfg Config) error {
	suite := DefaultSuite(cfg.Scale)
	w := cfg.tab()
	fmt.Fprintf(cfg.Out, "Backend race: edgeMap vs semiring kernels (seconds, median of %d)\n", cfg.rounds())
	fmt.Fprintln(w, "Input\tApplication\tedgemap\tspmv\tauto\tauto pick\tspmv/edgemap")
	for _, gname := range []string{"rMat", "3d-grid"} {
		in, err := FindInput(suite, gname)
		if err != nil {
			return err
		}
		g, err := in.Build()
		if err != nil {
			return err
		}
		src := pickSource(g)

		if err := spmvCrossValidate(g, src); err != nil {
			return fmt.Errorf("%s: backends diverge: %w", gname, err)
		}

		if cfg.budgetExhausted(w) {
			return w.Flush()
		}
		em := func() { algo.BFS(g, src, core.Options{}) }
		sv := func() {
			if _, err := spmv.BFSLevels(nil, g, src, spmv.BFSOptions{}); err != nil {
				panic(err)
			}
		}
		tEM := Measure(cfg.rounds(), em)
		tSV := Measure(cfg.rounds(), sv)
		// auto is dispatch + whichever backend ResolveBackend picks for
		// this graph shape, the same sequence the registry runner executes.
		var pick string
		tAuto := Measure(cfg.rounds(), func() {
			b, err := algo.ResolveBackend("bfs", g, algo.Params{Backend: algo.BackendAuto})
			if err != nil {
				panic(err)
			}
			pick = b
			if b == algo.BackendSpMV {
				sv()
			} else {
				em()
			}
		})
		fmt.Fprintf(w, "%s\tBFS\t%.4f\t%.4f\t%.4f\t%s\t%.2fx\n",
			gname,
			tEM.Median.Seconds(), tSV.Median.Seconds(), tAuto.Median.Seconds(),
			pick, tSV.Median.Seconds()/tEM.Median.Seconds())
		cfg.record("spmv/BFS-"+gname+"-edgemap", tEM.Median.Seconds())
		cfg.record("spmv/BFS-"+gname+"-spmv", tSV.Median.Seconds())
		cfg.record("spmv/BFS-"+gname+"-auto", tAuto.Median.Seconds())
	}
	return w.Flush()
}

// spmvCrossValidate runs BFS once under both backends and verifies the
// results match: the equality claim the timed race (and the
// backend-agnostic result cache) rests on.
func spmvCrossValidate(g graph.View, src uint32) error {
	emBFS := algo.BFS(g, src, core.Options{})
	svBFS, err := spmv.BFSLevels(nil, g, src, spmv.BFSOptions{})
	if err != nil {
		return err
	}
	if emBFS.Rounds != svBFS.Rounds || emBFS.Visited != svBFS.Visited {
		return fmt.Errorf("BFS: edgemap %d rounds/%d visited, spmv %d/%d",
			emBFS.Rounds, emBFS.Visited, svBFS.Rounds, svBFS.Visited)
	}
	return nil
}
