package algo

import (
	"math"
	"slices"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// roundKinds counts a trace's rounds by kind: sparse, pull, forward.
func roundKinds(tr *core.Trace) (sparse, pull, fwd int) {
	for _, e := range tr.Entries {
		switch {
		case e.DenseForward:
			fwd++
		case e.Dense:
			pull++
		default:
			sparse++
		}
	}
	return
}

// TestAutoReachesEveryRoundKind: the automatic rule must reach all three
// traversals on graphs big enough to leave the small-round regime, and
// every application's whole result must not depend on which traversal
// ran. A two-source radii sweep (ClusterBFS, a kernel without a Cond or
// an early exit) runs sparse and forward rounds on a side-16 torus (its
// largest frontier stays under the forward/pull crossover there) and all
// three on an rMat graph; the mode matrix elsewhere uses graphs too
// small to leave the sparse side. (Bellman-Ford's block drain settles a
// graph of one drain block in a round or two, too few to carry them.) On
// both graphs BFS levels, BC path counts and scores,
// Bellman-Ford distances, radii, component labels and ClusterBFS levels,
// probes, Depth and Reached agree under auto and every forced mode.
func TestAutoReachesEveryRoundKind(t *testing.T) {
	grid, err := gen.Grid3D(16)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(12, 16, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want [3]bool // sparse, pull, forward rounds radii must run
	}{
		{"grid", grid.AddWeights(graph.HashWeight(100)), [3]bool{true, false, true}},
		{"rmat", rmat.AddWeights(graph.HashWeight(100)), [3]bool{true, true, true}},
	} {
		g := tc.g
		tr := &core.Trace{}
		must(RadiiCtx(nil, g, RadiiOptions{K: 2, Seed: 3, EdgeMap: core.Options{Trace: tr}}))
		sparse, pull, fwd := roundKinds(tr)
		t.Logf("%s: auto radii ran %d sparse, %d pull, %d forward rounds", tc.name, sparse, pull, fwd)
		for i, got := range []int{sparse, pull, fwd} {
			if tc.want[i] && got == 0 {
				t.Errorf("%s: auto radii ran no %s round", tc.name, []string{"sparse", "pull", "forward"}[i])
			}
		}

		src := uint32(g.NumVertices() / 3)
		sources := clusterSources(g.NumVertices(), 64, 9)
		probes := clusterSources(g.NumVertices(), 5, 10)
		type result struct {
			levels, radii, clusterLevels, depth []int32
			dist, reached                       []int64
			labels                              []uint32
			paths, scores                       []float64
			probes                              [][]int32
		}
		run := func(opts core.Options) result {
			var r result
			r.levels = must(BFSLevelsCtx(nil, g, src, opts))
			bc := must(BCCtx(nil, g, src, opts))
			r.paths, r.scores = bc.NumPaths, bc.Scores
			r.dist = must(BellmanFordCtx(nil, g, src, opts)).Dist
			r.radii = must(RadiiCtx(nil, g, RadiiOptions{K: 64, Seed: 3, EdgeMap: opts})).Radii
			r.labels = must(ConnectedComponentsCtx(nil, g, opts)).Labels
			cb := must(ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{EdgeMap: opts, WantLevels: true, Probes: probes}))
			r.clusterLevels, r.probes, r.depth, r.reached = cb.Levels, cb.ProbeLevels, cb.Depth, cb.Reached
			return r
		}
		want := run(core.Options{})
		for mname, opts := range modes {
			got := run(opts)
			switch {
			case !slices.Equal(got.levels, want.levels):
				t.Errorf("%s/%s: BFS levels differ from auto", tc.name, mname)
			case !slices.Equal(got.paths, want.paths):
				t.Errorf("%s/%s: BC path counts differ from auto", tc.name, mname)
			case !scoresClose(got.scores, want.scores):
				t.Errorf("%s/%s: BC scores differ from auto", tc.name, mname)
			case !slices.Equal(got.dist, want.dist):
				t.Errorf("%s/%s: Bellman-Ford distances differ from auto", tc.name, mname)
			case !slices.Equal(got.radii, want.radii):
				t.Errorf("%s/%s: radii differ from auto", tc.name, mname)
			case !slices.Equal(got.labels, want.labels):
				t.Errorf("%s/%s: component labels differ from auto", tc.name, mname)
			case !slices.Equal(got.clusterLevels, want.clusterLevels):
				t.Errorf("%s/%s: ClusterBFS levels differ from auto", tc.name, mname)
			case !slices.EqualFunc(got.probes, want.probes, slices.Equal[[]int32]):
				t.Errorf("%s/%s: ClusterBFS probe levels differ from auto", tc.name, mname)
			case !slices.Equal(got.depth, want.depth):
				t.Errorf("%s/%s: ClusterBFS Depth differs from auto", tc.name, mname)
			case !slices.Equal(got.reached, want.reached):
				t.Errorf("%s/%s: ClusterBFS Reached differs from auto", tc.name, mname)
			}
		}
	}
}

// scoresClose compares BC dependencies, which sum fractions in an order
// the traversal picks, to a relative 1e-9.
func scoresClose(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*max(1, math.Abs(x), math.Abs(y))
	})
}
