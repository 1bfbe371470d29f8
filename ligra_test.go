package ligra_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"ligra"
	"ligra/internal/parallel"
)

func TestMain(m *testing.M) {
	parallel.SetProcs(4) // process-wide pin for the whole suite
	os.Exit(m.Run())
}

// must unwraps a run under a context that is never cancelled: its only
// possible error is a contained worker panic, re-raised here.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestPublicQuickstartFlow(t *testing.T) {
	g, err := ligra.RMAT(10, 8, ligra.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := ligra.ValidateGraph(g); err != nil {
		t.Fatal(err)
	}
	s := ligra.ComputeStats(g)
	if s.Vertices != 1024 || s.Edges != g.NumEdges() {
		t.Errorf("stats mismatch: %+v", s)
	}

	res := must(ligra.BFS(context.Background(), g, 0, ligra.Options{}))
	if res.Visited < 2 {
		t.Errorf("BFS visited only %d", res.Visited)
	}
	cc := must(ligra.ConnectedComponents(context.Background(), g, ligra.Options{}))
	if cc.Components < 1 {
		t.Error("no components?")
	}
	pr := must(ligra.PageRank(context.Background(), g, ligra.DefaultPageRankOptions()))
	var mass float64
	for _, r := range pr.Ranks {
		mass += r
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("PageRank mass = %v", mass)
	}
}

func TestPublicHandWrittenBFSAgrees(t *testing.T) {
	g, err := ligra.Grid3D(10)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	parents := make([]uint32, n)
	for i := range parents {
		parents[i] = ligra.None
	}
	parents[0] = 0
	f := ligra.EdgeFuncs{
		Update: func(s, d uint32, _ int32) bool {
			if parents[d] == ligra.None {
				parents[d] = s
				return true
			}
			return false
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&parents[d], ligra.None, s)
		},
		Cond: func(d uint32) bool { return parents[d] == ligra.None },
	}
	frontier := ligra.NewSingle(n, 0)
	for !frontier.IsEmpty() {
		frontier = must(ligra.EdgeMap(context.Background(), g, frontier, f, ligra.Options{}))
	}
	want := must(ligra.BFS(context.Background(), g, 0, ligra.Options{}))
	for v := 0; v < n; v++ {
		if (parents[v] == ligra.None) != (want.Parents[v] == ligra.None) {
			t.Fatalf("reachability differs at %d", v)
		}
	}
}

func TestPublicGraphIO(t *testing.T) {
	g, err := ligra.RandomLocal(300, 4, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ligra.WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ligra.ReadAdjacency(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip size mismatch")
	}

	dir := t.TempDir()
	if err := ligra.SaveGraph(dir+"/g.bin", g, true); err != nil {
		t.Fatal(err)
	}
	g3, err := ligra.Load(dir+"/g.bin", ligra.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Error("binary round trip mismatch")
	}
}

func TestPublicCompressedGraphRuns(t *testing.T) {
	g, err := ligra.RMAT(10, 8, ligra.PBBSRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ligra.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	a := must(ligra.BFSLevels(context.Background(), g, 0, ligra.Options{}))
	b := must(ligra.BFSLevels(context.Background(), c, 0, ligra.Options{}))
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("level[%d]: csr %d vs compressed %d", v, a[v], b[v])
		}
	}
}

func TestPublicParallelismControls(t *testing.T) {
	if p := ligra.Parallelism(); p != 4 {
		t.Errorf("Parallelism() = %d, want TestMain's 4", p)
	}
	g, err := ligra.Grid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	// Under a WithParallelism(1) lease no two updates ever overlap.
	var cur, peak atomic.Int64
	f := ligra.EdgeFuncs{UpdateAtomic: func(_, _ uint32, _ int32) bool {
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		cur.Add(-1)
		return true
	}}
	ctx := ligra.WithParallelism(context.Background(), 1)
	if _, err := ligra.EdgeMap(ctx, g, ligra.NewAll(g.NumVertices()), f, ligra.Options{Mode: ligra.ForceSparse}); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Errorf("observed %d concurrent updates under WithParallelism(1)", peak.Load())
	}
}

func TestPublicWeightedRouting(t *testing.T) {
	g, err := ligra.Grid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(ligra.HashWeight(50))
	sp := must(ligra.BellmanFord(context.Background(), wg, 0, ligra.Options{}))
	if sp.NegativeCycle {
		t.Fatal("unexpected negative cycle")
	}
	// Torus is connected: everything reachable, dist 0 only at source.
	for v, d := range sp.Dist {
		if d >= ligra.InfDist {
			t.Fatalf("vertex %d unreachable on a torus", v)
		}
		if v != 0 && d == 0 {
			t.Fatalf("vertex %d at distance 0 with positive weights", v)
		}
	}
}

func TestPublicTriangleAndMISAndKCore(t *testing.T) {
	g, err := ligra.RMAT(9, 10, ligra.PBBSRMAT, 11)
	if err != nil {
		t.Fatal(err)
	}
	if tc := must(ligra.TriangleCount(context.Background(), g)); tc <= 0 {
		t.Errorf("triangles = %d on a dense power-law graph", tc)
	}
	mis := must(ligra.MIS(context.Background(), g, 1, ligra.Options{}))
	size := 0
	for _, in := range mis.InSet {
		if in {
			size++
		}
	}
	if size == 0 {
		t.Error("empty MIS")
	}
	kc := must(ligra.KCore(context.Background(), g, ligra.Options{}))
	if kc.MaxCore < 1 {
		t.Errorf("MaxCore = %d", kc.MaxCore)
	}
}

func TestPublicExtensionAlgorithms(t *testing.T) {
	g, err := ligra.WattsStrogatz(400, 4, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Spanning forest spans all components.
	cc := must(ligra.ConnectedComponents(context.Background(), g, ligra.Options{}))
	sf := must(ligra.SpanningForest(context.Background(), g, ligra.Options{}))
	if len(sf.Edges) != g.NumVertices()-cc.Components {
		t.Errorf("forest edges %d, want %d", len(sf.Edges), g.NumVertices()-cc.Components)
	}
	if len(sf.Roots) != cc.Components {
		t.Errorf("forest roots %d, want %d", len(sf.Roots), cc.Components)
	}

	// Coloring is proper; matching is symmetric.
	col := must(ligra.Coloring(context.Background(), g, 2, ligra.Options{}))
	mm := must(ligra.MaximalMatching(context.Background(), g, 2))
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		ts, _ := g.OutRow(v, nil)
		for _, d := range ts {
			if d != v && col.Colors[v] == col.Colors[d] {
				t.Fatalf("improper coloring at edge %d-%d", v, d)
			}
		}
		if p := mm.Partner[v]; p != ligra.None && mm.Partner[p] != v {
			t.Fatalf("matching asymmetry at %d", v)
		}
	}

	// Eccentricity bound is sane.
	ecc := must(ligra.TwoPassEccentricity(context.Background(), g, 16, 3, ligra.Options{}))
	if ecc.DiameterLowerBound < 1 {
		t.Errorf("diameter bound %d", ecc.DiameterLowerBound)
	}

	// The densest k-core is within a factor 2 of the degeneracy bound.
	kc := must(ligra.KCore(context.Background(), g, ligra.Options{}))
	ds := must(ligra.DensestSubgraph(context.Background(), g, ligra.Options{}))
	if ds.Density < float64(kc.MaxCore)/2 || len(ds.Vertices) == 0 {
		t.Errorf("densest: density %v over %d vertices, degeneracy %d", ds.Density, len(ds.Vertices), kc.MaxCore)
	}
}

func TestPublicDirectedPipeline(t *testing.T) {
	g, err := ligra.RMATDirected(10, 6, ligra.Graph500RMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	scc := must(ligra.SCC(context.Background(), g, ligra.Options{}))
	if scc.Components < 1 || scc.Components > g.NumVertices() {
		t.Errorf("SCC components = %d", scc.Components)
	}
	// Transpose BFS reaches at least the source.
	res := must(ligra.BFS(context.Background(), g.Transpose(), 0, ligra.Options{}))
	if res.Visited < 1 {
		t.Error("transpose BFS broken")
	}
}

func TestPublicGraphTransforms(t *testing.T) {
	g, err := ligra.RMAT(9, 8, ligra.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	perm := ligra.DegreeOrderPermutation(g)
	rg, err := ligra.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Error("relabel changed edge count")
	}
	// Relabeling must not change component structure sizes.
	a := must(ligra.ConnectedComponents(context.Background(), g, ligra.Options{}))
	b := must(ligra.ConnectedComponents(context.Background(), rg, ligra.Options{}))
	if a.Components != b.Components {
		t.Errorf("components changed: %d vs %d", a.Components, b.Components)
	}
	// Induced subgraph of even vertices.
	sub, _, _, err := ligra.InducedSubgraph(g, func(v uint32) bool { return v%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != g.NumVertices()/2 {
		t.Errorf("subgraph n = %d", sub.NumVertices())
	}
	// Filter out all edges touching vertex 0.
	fg, err := ligra.FilterEdges(g, func(s, d uint32, _ int32) bool { return s != 0 && d != 0 })
	if err != nil {
		t.Fatal(err)
	}
	if fg.OutDegree(0) != 0 {
		t.Error("FilterEdges left edges at vertex 0")
	}
}

func TestPublicEdgeListAndLocalClustering(t *testing.T) {
	g, err := ligra.RMAT(9, 8, ligra.PBBSRMAT, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ligra.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ligra.ReadEdgeList(&buf, ligra.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edge list round trip: %d vs %d edges", g2.NumEdges(), g.NumEdges())
	}

	appr, err := ligra.APPR(context.Background(), g, 0, 0.15, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, v := range appr.P {
		mass += v
	}
	for _, v := range appr.R {
		mass += v
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("APPR mass %v", mass)
	}
	sc := must(ligra.SweepCut(context.Background(), g, appr.P))
	if sc.Conductance <= 0 || sc.Conductance > 1 {
		t.Errorf("conductance %v", sc.Conductance)
	}
	lc, err := ligra.LocalCluster(context.Background(), g, 0, 0.15, 1e-5)
	if err != nil || len(lc.Cluster) == 0 {
		t.Errorf("LocalCluster: %v %v", lc, err)
	}

	// RadiiMulti with K > 64.
	rm := must(ligra.RadiiMulti(context.Background(), g, 100, 1, ligra.Options{}))
	if len(rm.Sources) != 100 {
		t.Errorf("%d sources", len(rm.Sources))
	}
	base := must(ligra.Radii(context.Background(), g, ligra.RadiiOptions{K: 64, Seed: 1}))
	_ = base // different samples; just ensure both run and are in range
	for _, r := range rm.Radii {
		if r < -1 {
			t.Fatalf("bad radius %d", r)
		}
	}
}

func TestPublicDedupStrategies(t *testing.T) {
	g, err := ligra.Grid3D(8)
	if err != nil {
		t.Fatal(err)
	}
	// Forced sparse, so duplicate removal runs every round.
	opts := ligra.Options{Mode: ligra.ForceSparse, RemoveDuplicates: true}
	if res := must(ligra.ConnectedComponents(context.Background(), g, opts)); res.Components != 1 {
		t.Errorf("%d components on a torus", res.Components)
	}
}

func TestPublicLoadSniffsEveryFormat(t *testing.T) {
	g, err := ligra.RandomLocal(400, 4, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// One file per on-disk format; Load must sniff each by content.
	if err := ligra.SaveGraph(dir+"/g.txt", g, false); err != nil {
		t.Fatal(err)
	}
	if err := ligra.SaveGraph(dir+"/g.bin", g, true); err != nil {
		t.Fatal(err)
	}
	c, err := ligra.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ligra.SaveCompressed(dir+"/g.gc", c); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path string
		opts ligra.LoadOptions
	}{
		{dir + "/g.txt", ligra.LoadOptions{Symmetric: true}},
		{dir + "/g.bin", ligra.LoadOptions{}},
		{dir + "/g.gc", ligra.LoadOptions{}},
	} {
		v, err := ligra.Load(tc.path, tc.opts)
		if err != nil {
			t.Fatalf("Load(%s): %v", tc.path, err)
		}
		if v.NumVertices() != g.NumVertices() || v.NumEdges() != g.NumEdges() {
			t.Errorf("Load(%s): got %d/%d vertices/edges, want %d/%d",
				tc.path, v.NumVertices(), v.NumEdges(), g.NumVertices(), g.NumEdges())
		}
	}

	// mmap is only legal for the compressed format.
	if _, err := ligra.Load(dir+"/g.bin", ligra.LoadOptions{MMap: true}); err == nil {
		t.Error("Load with MMap on a binary CSR file should fail")
	}
}

func TestPublicWritersAcceptViews(t *testing.T) {
	g, err := ligra.RandomLocal(200, 4, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ligra.Compress(g)
	if err != nil {
		t.Fatal(err)
	}

	// WriteAdjacency from a compressed view equals the heap graph's output.
	var fromHeap, fromCompressed bytes.Buffer
	if err := ligra.WriteAdjacency(&fromHeap, g); err != nil {
		t.Fatal(err)
	}
	if err := ligra.WriteAdjacency(&fromCompressed, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromHeap.Bytes(), fromCompressed.Bytes()) {
		t.Error("WriteAdjacency output differs between heap and compressed views")
	}

	var el bytes.Buffer
	if err := ligra.WriteEdgeList(&el, c); err != nil {
		t.Fatal(err)
	}
	g2, err := ligra.ReadEdgeList(&el, ligra.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edge-list round trip: %d edges, want %d", g2.NumEdges(), g.NumEdges())
	}

	// ComputeStats on a view without a MemoryFootprint reports 0 bytes
	// but everything else.
	sc := ligra.ComputeStats(c)
	sg := ligra.ComputeStats(g)
	if sc.Vertices != sg.Vertices || sc.Edges != sg.Edges || sc.MaxOutDeg != sg.MaxOutDeg {
		t.Errorf("stats differ between views: %+v vs %+v", sc, sg)
	}
}
