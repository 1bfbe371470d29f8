package algo

import (
	"math/rand"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		wg := g.AddWeights(graph.HashWeight(32))
		want := seq.Dijkstra(wg, 0)
		for _, delta := range []int64{0, 1, 4, 16, 1 << 30} {
			res, err := DeltaSteppingCtx(nil, wg, 0, delta, core.Options{})
			if err != nil {
				t.Fatalf("%s delta=%d: %v", gname, delta, err)
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s delta=%d: dist[%d] = %d, want %d",
						gname, delta, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

func TestDeltaSteppingDeltaOneVsHuge(t *testing.T) {
	// delta=1 degenerates toward Dijkstra (many buckets); delta=inf
	// degenerates toward Bellman-Ford (one bucket). Both must agree; the
	// bucket counts must reflect the regime.
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 6)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(32))
	fine, err := DeltaSteppingCtx(nil, wg, 0, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := DeltaSteppingCtx(nil, wg, 0, 1<<40, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Buckets != 1 {
		t.Errorf("huge delta used %d buckets, want 1", coarse.Buckets)
	}
	if fine.Buckets <= coarse.Buckets {
		t.Errorf("delta=1 used %d buckets, expected more than %d", fine.Buckets, coarse.Buckets)
	}
	for v := range fine.Dist {
		if fine.Dist[v] != coarse.Dist[v] {
			t.Fatalf("dist[%d] differs across deltas", v)
		}
	}
}

func TestDeltaSteppingRejectsNegativeWeights(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1, Weight: -1}},
		graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaSteppingCtx(nil, g, 0, 1, core.Options{}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := DeltaSteppingCtx(nil, g, 0, 0, core.Options{}); err == nil {
		t.Error("negative weight accepted with auto delta")
	}
}

func TestDeltaSteppingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(150)
		m := rng.Intn(5 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{
				Src:    uint32(rng.Intn(n)),
				Dst:    uint32(rng.Intn(n)),
				Weight: int32(rng.Intn(64)),
			}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{
			Weighted: true, RemoveSelfLoops: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := uint32(rng.Intn(n))
		want := seq.Dijkstra(g, src)
		delta := int64(rng.Intn(40))
		res, err := DeltaSteppingCtx(nil, g, src, delta, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("trial %d delta=%d: dist[%d] = %d, want %d",
					trial, delta, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestDeltaSteppingUnweighted(t *testing.T) {
	// Unweighted graphs have weight 1 everywhere: distances equal BFS
	// levels.
	g, err := gen.Grid3D(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DeltaSteppingCtx(nil, g, 0, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lv := seq.BFSLevels(g, 0)
	for v := range lv {
		if int64(lv[v]) != res.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], lv[v])
		}
	}
}
