package bench

import (
	"fmt"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/spmv"
)

// SpMV races the two execution backends — edgeMap traversal versus the
// GraphBLAS-style semiring kernels — on the algorithms that have spmv
// kernels, across both suite shapes (the scale-free rMat and the
// high-diameter 3d-grid). For each (graph, application) cell it:
//
//   - cross-validates the backends once, un-timed: BFS must agree on
//     rounds and visited count, triangle counting on the count — the
//     identity contract that lets the result cache ignore the backend
//   - times three variants: backend=edgemap, backend=spmv, and
//     backend=auto (ResolveBackend dispatch + the chosen kernel, exactly
//     the runner's auto path), recording each as
//     "spmv/<App>-<graph>-<backend>"
//
// The auto column should track min(edgemap, spmv) to within dispatch
// overhead; a larger gap means the auto heuristic picked the losing
// backend for that shape. PageRank is not raced: since its edgeMap row
// kernel became the pull gather, backend "spmv" runs the same code (the
// hotpath experiment's PageRank1 pair records what the callback cost).
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

		apps := []struct {
			name string
			em   func() // backend=edgemap
			sv   func() // backend=spmv
		}{
			{"BFS",
				func() { algo.BFS(g, src, core.Options{}) },
				func() { mustSpMV(spmvBFSErr(g, src)) }},
			{"Triangles",
				func() { algo.TriangleCount(g) },
				func() { mustSpMV(spmvTrianglesErr(g)) }},
		}
		algoNames := []string{"bfs", "triangles"}
		for i, a := range apps {
			if cfg.budgetExhausted(w) {
				return w.Flush()
			}
			tEM := Measure(cfg.rounds(), a.em)
			tSV := Measure(cfg.rounds(), a.sv)
			// auto is dispatch + whichever backend ResolveBackend picks for
			// this graph shape, the same sequence the registry runner executes.
			var pick string
			run := func() {
				b, err := algo.ResolveBackend(algoNames[i], g, algo.Params{Backend: algo.BackendAuto})
				if err != nil {
					panic(err)
				}
				pick = b
				if b == algo.BackendSpMV {
					a.sv()
				} else {
					a.em()
				}
			}
			tAuto := Measure(cfg.rounds(), run)
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\t%s\t%.2fx\n",
				gname, a.name,
				tEM.Median.Seconds(), tSV.Median.Seconds(), tAuto.Median.Seconds(),
				pick, tSV.Median.Seconds()/tEM.Median.Seconds())
			cfg.record("spmv/"+a.name+"-"+gname+"-edgemap", tEM.Median.Seconds())
			cfg.record("spmv/"+a.name+"-"+gname+"-spmv", tSV.Median.Seconds())
			cfg.record("spmv/"+a.name+"-"+gname+"-auto", tAuto.Median.Seconds())
		}
	}
	return w.Flush()
}

func spmvBFSErr(g graph.View, src uint32) error {
	_, err := spmv.BFSLevels(nil, g, src, spmv.BFSOptions{})
	return err
}

func spmvTrianglesErr(g graph.View) error {
	_, err := spmv.TriangleCount(nil, g)
	return err
}

func mustSpMV(err error) {
	if err != nil {
		panic(err)
	}
}

// spmvCrossValidate runs every kernel once under both backends and
// verifies the results match: the equality claim the timed race (and the
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
	emTri := algo.TriangleCount(g)
	svTri, err := spmv.TriangleCount(nil, g)
	if err != nil {
		return err
	}
	if emTri != svTri {
		return fmt.Errorf("Triangles: edgemap %d, spmv %d", emTri, svTri)
	}
	return nil
}
