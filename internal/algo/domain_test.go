package algo

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

// TestRunnerDomains runs every runner on a directed rMat graph and its
// symmetric twin, each weighted and unweighted, and on a one-vertex graph
// and a 5-vertex graph with no edges. Each case either matches its oracle
// — a sequential reference, or a validator of the algorithm's output
// where the answer is not unique — or, for an undirected-only runner on a
// directed graph, is refused with an error that names the domain.
func TestRunnerDomains(t *testing.T) {
	dir, err := gen.RMATDirected(6, 4, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := gen.RMAT(6, 4, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    graph.View
	}{
		{"directed", dir},
		{"directed-weighted", dir.AddWeights(graph.HashWeight(31))},
		{"symmetric", sym},
		{"symmetric-weighted", sym.AddWeights(graph.HashWeight(31))},
		{"one-vertex", singleVertex(t)},
		// Vertex 0, the source, is isolated. local-cluster answers it with
		// the empty cluster and conductance 1, and that is the intended
		// answer: an isolated seed has no volume, so no sweep prefix has a
		// conductance, and 1 is what a sweep reports when it finds no cut.
		{"edgeless-5", edgeless(t, 5)},
	}
	for _, gc := range graphs {
		n := gc.g.NumVertices()
		// K = 64 >= n samples every vertex, so bc-approx, radii and
		// eccentricity are exact.
		p := Params{Source: 0, Target: uint32(n - 1), Landmarks: []uint32{0, uint32(n - 1)}, K: 64}
		for _, r := range Runners() {
			res, err := r.Run(bg, gc.g, p)
			if r.Undirected && !gc.g.Symmetric() {
				if err == nil || !strings.Contains(err.Error(), "needs an undirected graph") {
					t.Errorf("%s/%s: err = %v, summary %q; want the undirected-only refusal", gc.name, r.Name, err, res.Summary)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", gc.name, r.Name, err)
				continue
			}
			if err := domainOracles[r.Name](gc.g, p, res.Details); err != nil {
				t.Errorf("%s/%s: %v (summary %q)", gc.name, r.Name, err, res.Summary)
			}
		}
	}
	if edgelessLocal := must(LocalCluster(bg, edgeless(t, 5), 0, 0.15, 1e-6)); len(edgelessLocal.Cluster) != 0 || edgelessLocal.Conductance != 1 {
		t.Errorf("isolated seed: cluster %v, conductance %v; want the empty cluster, conductance 1", edgelessLocal.Cluster, edgelessLocal.Conductance)
	}
}

// domainOracles checks each runner's reply details on g against an
// independent answer.
var domainOracles = map[string]func(g graph.View, p Params, d map[string]any) error{
	"bfs": func(g graph.View, p Params, d map[string]any) error {
		levels := seq.BFSLevels(g, p.Source)
		visited := 0
		for _, l := range levels {
			if l >= 0 {
				visited++
			}
		}
		return want(d, "visited", visited, "rounds", int(slices.Max(levels)))
	},
	"reach": func(g graph.View, p Params, d map[string]any) error {
		l := seq.BFSLevels(g, p.Source)[p.Target]
		return want(d, "distance", int64(l), "reachable", l >= 0)
	},
	"landmarks": func(g graph.View, p Params, d map[string]any) error {
		levels := seq.BFSLevels(g, p.Source)
		dists := make([]int64, len(p.Landmarks))
		for j, l := range p.Landmarks {
			dists[j] = int64(levels[l])
		}
		return want(d, "distances", dists)
	},
	"bc": func(g graph.View, p Params, d map[string]any) error {
		return wantMaxScore(d, seq.BC(g, p.Source))
	},
	"bc-approx": func(g graph.View, p Params, d map[string]any) error {
		sum := make([]float64, g.NumVertices())
		for s := range sum {
			for v, x := range seq.BC(g, uint32(s)) {
				sum[v] += x
			}
		}
		return wantMaxScore(d, sum)
	},
	"radii":        func(g graph.View, p Params, d map[string]any) error { return wantDiameter(g, d) },
	"eccentricity": func(g graph.View, p Params, d map[string]any) error { return wantDiameter(g, d) },
	"components": func(g graph.View, p Params, d map[string]any) error {
		return want(d, "components", distinct(seq.ConnectedComponents(g)))
	},
	"pagerank": func(g graph.View, p Params, d map[string]any) error {
		o := DefaultPageRankOptions()
		res := must(PageRankCtx(bg, g, o))
		if e := maxAbsDiff(res.Ranks, seq.PageRank(g, o.Damping, o.Epsilon, o.MaxIterations)); e > 1e-6 {
			return fmt.Errorf("ranks differ from the sequential PageRank by %g", e)
		}
		return want(d, "iterations", res.Iterations, "l1_change", res.Err)
	},
	"pagerank-delta": func(g graph.View, p Params, d map[string]any) error {
		o := DefaultPageRankOptions()
		res := must(PageRankDeltaCtx(bg, g, o, 1e-3))
		if e := maxAbsDiff(res.Ranks, pageRankLosingDangling(g, o.Damping)); e > 1e-3 {
			return fmt.Errorf("ranks differ from the sequential power iteration by %g", e)
		}
		return want(d, "iterations", res.Iterations, "l1_change", res.Err)
	},
	"bellman-ford": func(g graph.View, p Params, d map[string]any) error {
		return want(d, "reached", countReached(seq.Dijkstra(g, p.Source)))
	},
	"kcore": func(g graph.View, p Params, d map[string]any) error {
		return want(d, "degeneracy", slices.Max(append(seq.KCore(g), 0)))
	},
	"mis": func(g graph.View, p Params, d map[string]any) error {
		size := 0
		for _, in := range seq.GreedyMIS(g, greedyOrder(g.NumVertices(), 123)) {
			if in {
				size++
			}
		}
		return want(d, "size", size)
	},
	"scc": func(g graph.View, p Params, d map[string]any) error {
		return want(d, "components", distinct(seq.SCC(g)))
	},
	"coloring": func(g graph.View, p Params, d map[string]any) error {
		colors := seq.GreedyColoring(g, greedyOrder(g.NumVertices(), 7))
		return want(d, "colors", int(slices.Max(colors))+1)
	},
	"matching": func(g graph.View, p Params, d map[string]any) error {
		res := must(MaximalMatching(bg, g, 7))
		const none = ^uint32(0)
		size := 0
		var buf graph.Row
		for v, m := range res.Partner {
			if m != none && (res.Partner[m] != uint32(v) || !hasEdge(g, uint32(v), m)) {
				return fmt.Errorf("%d matched to %d, which is not its neighbour matched back", v, m)
			}
			if m != none && m > uint32(v) {
				size++
			}
			ts, _ := g.OutRow(uint32(v), &buf)
			for _, u := range ts {
				if m == none && u != uint32(v) && res.Partner[u] == none {
					return fmt.Errorf("edge (%d, %d) has both endpoints unmatched", v, u)
				}
			}
		}
		return want(d, "edges", size)
	},
	"densest": func(g graph.View, p Params, d map[string]any) error {
		res := must(DensestSubgraph(bg, g, p.EdgeMapOptions()))
		if len(res.Vertices) > 0 && math.Abs(densityOf(g, res.Vertices)-res.Density) > 1e-9 {
			return fmt.Errorf("the reported set has density %v, not %v", densityOf(g, res.Vertices), res.Density)
		}
		if whole := float64(g.NumEdges()) / 2 / float64(g.NumVertices()); res.Density < whole-1e-9 {
			return fmt.Errorf("density %v is below the whole graph's %v", res.Density, whole)
		}
		return want(d, "vertices", len(res.Vertices), "density", res.Density)
	},
	"local-cluster": func(g graph.View, p Params, d map[string]any) error {
		ref := refSweepCut(g, refAPPR(g, p.Source, 0.15, 1e-6).P)
		return want(d, "cluster_size", len(ref.Cluster), "conductance", ref.Conductance)
	},
	"triangles": func(g graph.View, p Params, d map[string]any) error {
		return want(d, "triangles", seq.TriangleCount(g))
	},
	"clustering": func(g graph.View, p Params, d map[string]any) error {
		var sum float64
		lcc := seq.ClusteringCoefficients(g)
		for _, c := range lcc {
			sum += c
		}
		return want(d, "mean_coefficient", sum/float64(len(lcc)))
	},
}

// want compares reply details against key, value pairs: floats to a
// relative 1e-9, everything else exactly.
func want(d map[string]any, kv ...any) error {
	for i := 0; i < len(kv); i += 2 {
		key, w := kv[i].(string), kv[i+1]
		got := d[key]
		if wf, ok := w.(float64); ok {
			if gf, ok := got.(float64); !ok || math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf)) {
				return fmt.Errorf("%s = %v, oracle %v", key, got, w)
			}
			continue
		}
		if !reflect.DeepEqual(got, w) {
			return fmt.Errorf("%s = %v (%T), oracle %v (%T)", key, got, got, w, w)
		}
	}
	return nil
}

func wantMaxScore(d map[string]any, scores []float64) error {
	_, maxS := maxScore(scores)
	return want(d, "max_score", maxS)
}

// wantDiameter: with every vertex a source, the diameter bound is the
// longest finite distance.
func wantDiameter(g graph.View, d map[string]any) error {
	all := make([]uint32, g.NumVertices())
	for v := range all {
		all[v] = uint32(v)
	}
	return want(d, "diameter_lower_bound", maxOrMinusOne(seq.Eccentricities(g, all)))
}

func distinct(labels []uint32) int {
	seen := map[uint32]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

func maxAbsDiff(a, b []float64) float64 {
	var e float64
	for i := range a {
		e = max(e, math.Abs(a[i]-b[i]))
	}
	return e
}

// pageRankLosingDangling is the fixed point PageRank-Delta converges to,
// by sequential power iteration: the paper's recurrence, under which the
// rank an out-degree-0 vertex holds leaves the graph instead of being
// spread over every vertex as PageRankCtx spreads it.
func pageRankLosingDangling(g graph.View, damping float64) []float64 {
	n := g.NumVertices()
	x := make([]float64, n)
	for v := range x {
		x[v] = 1 / float64(n)
	}
	var buf graph.Row
	for range 200 {
		next := make([]float64, n)
		for v := range next {
			next[v] = (1 - damping) / float64(n)
		}
		for u := range x {
			ts, _ := g.OutRow(uint32(u), &buf)
			for _, v := range ts {
				next[v] += damping * x[u] / float64(len(ts))
			}
		}
		x = next
	}
	return x
}

// greedyOrder is the order MIS and coloring decide vertices in under
// seed: priority hashU64(seed, v) descending, ties by ID descending.
func greedyOrder(n int, seed uint64) []uint32 {
	order := make([]uint32, n)
	for v := range order {
		order[v] = uint32(v)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(hashU64(seed, uint64(b)), hashU64(seed, uint64(a))), cmp.Compare(b, a))
	})
	return order
}
