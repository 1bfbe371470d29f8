package algo_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
	"ligra/internal/viewtest"
)

// perEdge hides everything about a view except the graph.View methods, so
// core's drivers cannot slice raw CSR arrays and fetch every row through
// OutRow and InRow.
type perEdge struct{ graph.View }

// rowGraphs are the inputs of the differential tests: scale-free,
// high-diameter, disconnected and directed, all weighted.
func rowGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g.AddWeights(graph.HashWeight(100))
	}
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	add("rmat", g, err)
	g, err = gen.Grid3D(7)
	add("grid", g, err)
	g, err = gen.ErdosRenyi(300, 260, 3)
	add("disconnected", g, err)
	g, err = gen.RMATDirected(8, 6, gen.PBBSRMAT, 4)
	add("directed", g, err)
	return gs
}

// rowViews is g behind each representation the row driver serves; the
// delta snapshot's batches net out to g itself, so every view has the same
// oracle.
func rowViews(t *testing.T, g *graph.Graph) map[string]graph.View {
	t.Helper()
	// Dirty rows (served from the overlay), the graph still g.
	views := viewtest.Matrix(t, g, viewtest.NetZero(g)...)
	if _, isCSR := views["snapshot"].(*graph.Graph); isCSR {
		t.Fatal("snapshot was compacted; the test wants an overlay")
	}
	return views
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// rowModes are the differential tests' round modes — auto (the rounds a
// query really runs), and every round forced through the pull kernel, the
// sparse push or the forward push — each on one worker and on four.
func rowModes() map[string]core.Options {
	modes := map[string]core.Options{}
	for mname, mode := range map[string]core.Mode{"auto": core.Auto, "dense": core.Pull, "sparse": core.Sparse, "forward": core.Forward} {
		for _, procs := range []int{1, 4} {
			modes[fmt.Sprintf("%s-p%d", mname, procs)] = core.Options{Mode: mode, Procs: procs}
		}
	}
	return modes
}

// TestRowKernelsMatchPerEdgeAndOracle: on every representation, directly
// and through the row adapter, each algorithm with row kernels equals the
// sequential oracle — BFS levels, component labels, spanning-forest roots
// and Bellman-Ford distances exactly, BC within 1e-9 — in every mode of
// rowModes: its pull kernel, its push kernel in sparse and forward
// rounds, and the mix the direction rule picks.
func TestRowKernelsMatchPerEdgeAndOracle(t *testing.T) {
	modes := rowModes()
	for gname, g := range rowGraphs(t) {
		const src = 1
		wantLevels := seq.BFSLevels(g, src)
		wantDist := seq.Dijkstra(g, src)
		wantBC := seq.BC(g, src)
		var wantLabels, wantRoots []uint32
		if g.Symmetric() {
			wantLabels = seq.ConnectedComponents(g)
			// SpanningForest roots each component at its smallest vertex.
			seen := map[uint32]bool{}
			for v, l := range wantLabels {
				if !seen[l] {
					seen[l] = true
					wantRoots = append(wantRoots, uint32(v))
				}
			}
		}
		for vname, v := range rowViews(t, g) {
			for mname, opts := range modes {
				for sname, view := range map[string]graph.View{"native": v, "adapter": perEdge{v}} {
					name := fmt.Sprintf("%s/%s/%s/%s", gname, vname, mname, sname)

					levels, err := algo.BFSLevelsCtx(nil, view, src, opts)
					if err != nil {
						t.Fatalf("%s: bfs levels: %v", name, err)
					}
					bfs, err := algo.BFSCtx(nil, view, src, opts)
					if err != nil {
						t.Fatalf("%s: bfs: %v", name, err)
					}
					for i, want := range wantLevels {
						if levels[i] != want {
							t.Fatalf("%s: level[%d] = %d, oracle %d", name, i, levels[i], want)
						}
						// The parent tree must realize the same levels.
						if p := bfs.Parents[i]; (p == core.None) != (want < 0) ||
							(want > 0 && wantLevels[p] != want-1) {
							t.Fatalf("%s: parent[%d] = %d at level %d", name, i, p, want)
						}
					}

					if wantLabels != nil {
						cc, err := algo.ConnectedComponentsCtx(nil, view, opts)
						if err != nil {
							t.Fatalf("%s: components: %v", name, err)
						}
						for i, want := range wantLabels {
							if cc.Labels[i] != want {
								t.Fatalf("%s: label[%d] = %d, oracle %d", name, i, cc.Labels[i], want)
							}
						}

						sf, err := algo.SpanningForest(nil, view, opts)
						if err != nil {
							t.Fatalf("%s: spanning forest: %v", name, err)
						}
						if !slices.Equal(sf.Roots, wantRoots) || len(sf.Edges) != len(wantLabels)-len(wantRoots) {
							t.Fatalf("%s: forest has %d roots, %d edges; want roots %v", name, len(sf.Roots), len(sf.Edges), wantRoots)
						}
						child := make([]bool, len(wantLabels))
						for _, e := range sf.Edges {
							if child[e.Dst] || wantLabels[e.Src] != wantLabels[e.Dst] {
								t.Fatalf("%s: forest edge %d->%d repeats a child or leaves its component", name, e.Src, e.Dst)
							}
							child[e.Dst] = true
						}
					}

					bf, err := algo.BellmanFordCtx(nil, view, src, opts)
					if err != nil {
						t.Fatalf("%s: bellman-ford: %v", name, err)
					}
					for i, want := range wantDist {
						if got := bf.Dist[i]; got != want && !(got >= algo.InfDist && want >= algo.InfDist) {
							t.Fatalf("%s: dist[%d] = %d, oracle %d", name, i, got, want)
						}
					}

					bc, err := algo.BCCtx(nil, view, src, opts)
					if err != nil {
						t.Fatalf("%s: bc: %v", name, err)
					}
					for i, want := range wantBC {
						if math.Abs(bc.Scores[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
							t.Fatalf("%s: bc[%d] = %v, oracle %v", name, i, bc.Scores[i], want)
						}
					}
				}
			}
		}
	}
}

// TestPageRankBitIdentical: PageRank is the same to the last bit of every
// rank and of the residual on every representation, directly and through
// the row adapter: each gathers every in-row in row order and reduces
// with the same fixed-block tree. PageRank-Delta holds the same identity
// as long as every round is a pull (its sparse rounds add concurrently,
// in no fixed order).
func TestPageRankBitIdentical(t *testing.T) {
	for gname, g := range rowGraphs(t) {
		oracle := seq.PageRank(g, 0.85, 0, 20)
		opts := algo.DefaultPageRankOptions()
		opts.MaxIterations = 20 // bounded: identity per iteration implies identity at convergence
		opts.Epsilon = 0
		deltaOpts := opts
		deltaOpts.EdgeMap.Mode = core.Pull
		want, err := algo.PageRankCtx(nil, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range oracle {
			if math.Abs(want.Ranks[i]-o) > 1e-12 {
				t.Fatalf("%s: rank[%d] = %v, oracle %v", gname, i, want.Ranks[i], o)
			}
		}
		wantD, err := algo.PageRankDeltaCtx(nil, g, deltaOpts, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		for vname, v := range rowViews(t, g) {
			for sname, view := range map[string]graph.View{"": v, "/adapter": perEdge{v}} {
				name := gname + "/" + vname + sname
				got, err := algo.PageRankCtx(nil, view, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Iterations != want.Iterations || math.Float64bits(got.Err) != math.Float64bits(want.Err) {
					t.Fatalf("%s: %d iterations, residual %x; heap %d, %x", name,
						got.Iterations, math.Float64bits(got.Err), want.Iterations, math.Float64bits(want.Err))
				}
				if i, ok := sameBits(got.Ranks, want.Ranks); !ok {
					t.Fatalf("%s: rank[%d] = %.17g, heap %.17g", name, i, got.Ranks[i], want.Ranks[i])
				}

				gotD, err := algo.PageRankDeltaCtx(nil, view, deltaOpts, 1e-3)
				if err != nil {
					t.Fatalf("%s delta: %v", name, err)
				}
				if i, ok := sameBits(gotD.Ranks, wantD.Ranks); !ok || gotD.Iterations != wantD.Iterations {
					t.Fatalf("%s delta: %d iterations, rank[%d] = %.17g; heap %d, %.17g", name,
						gotD.Iterations, i, gotD.Ranks[i], wantD.Iterations, wantD.Ranks[i])
				}
			}
		}
	}
}

// TestClusterBFSRowSweepMatchesKBFS: one sweep over K sources —
// saturation exit and all — reports per source exactly the levels of K
// independent BFSLevels runs, for the K that exercise the full-mask edge
// cases (1: the mask is one bit; 64: it is every bit), with duplicate
// sources sharing a vertex, on every representation and through the row
// adapter, in every mode of rowModes; and radii over the same sources
// equal their eccentricities.
func TestClusterBFSRowSweepMatchesKBFS(t *testing.T) {
	for gname, g := range rowGraphs(t) {
		n := g.NumVertices()
		oracle := map[uint32][]int32{}
		levelsFrom := func(s uint32) []int32 {
			if oracle[s] == nil {
				oracle[s] = seq.BFSLevels(g, s)
			}
			return oracle[s]
		}
		views := rowViews(t, g)
		views["adapter"] = perEdge{g}
		for _, k := range []int{1, 2, 8, 64} {
			sources := make([]uint32, k)
			for i := range sources {
				sources[i] = uint32((i*131 + 7*k) % n)
			}
			if k >= 8 {
				sources[3], sources[k-1] = sources[0], sources[0] // three bits on one vertex
			}
			for vname, v := range views {
				for mname, opts := range rowModes() {
					if k == 8 {
						// Radii samples its own sources; K = 8 of them.
						radii, err := algo.RadiiCtx(nil, v, algo.RadiiOptions{K: k, Seed: 5, EdgeMap: opts})
						if err != nil {
							t.Fatalf("%s/%s/%s radii: %v", gname, vname, mname, err)
						}
						if want := seq.Eccentricities(g, radii.Sources); !slices.Equal(radii.Radii, want) {
							t.Fatalf("%s/%s/%s: radii %v, eccentricities %v", gname, vname, mname, radii.Radii, want)
						}
					}
					res, err := algo.ClusterBFSCtx(nil, v, sources, algo.ClusterBFSOptions{EdgeMap: opts, WantLevels: true})
					if err != nil {
						t.Fatalf("%s/%s/%s k=%d: %v", gname, vname, mname, k, err)
					}
					for i, s := range sources {
						want := levelsFrom(s)
						for u := 0; u < n; u++ {
							if got := res.Levels[i*n+u]; got != want[u] {
								t.Fatalf("%s/%s/%s k=%d: d(src[%d]=%d, %d) = %d, bfs says %d",
									gname, vname, mname, k, i, s, u, got, want[u])
							}
							if bit := res.Visit[u]>>uint(i)&1 == 1; bit != (want[u] >= 0) {
								t.Fatalf("%s/%s/%s k=%d: visit bit %d of vertex %d is %v at level %d",
									gname, vname, mname, k, i, u, bit, want[u])
							}
						}
					}
				}
			}
		}
	}
}
