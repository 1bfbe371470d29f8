package compress

import (
	"context"
	"os"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/delta"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(4)
	os.Exit(m.Run())
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		buf := appendUvarint(nil, x)
		got, rest := readUvarint(buf)
		return got == x && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []uint64{0, 1, 127, 128, 1 << 20, ^uint64(0)} {
		buf := appendUvarint(nil, x)
		got, _ := readUvarint(buf)
		if got != x {
			t.Errorf("uvarint(%d) round trip = %d", x, got)
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(x int64) bool {
		buf := appendZigzag(nil, x)
		got, rest := readZigzag(buf)
		return got == x && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []int64{0, -1, 1, -64, 63, -1 << 40, 1 << 40} {
		buf := appendZigzag(nil, x)
		got, _ := readZigzag(buf)
		if got != x {
			t.Errorf("zigzag(%d) round trip = %d", x, got)
		}
	}
}

func TestTruncatedVarintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on truncated varint")
		}
	}()
	readUvarint([]byte{0x80, 0x80})
}

func mustRMAT(t *testing.T, scale int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(scale, 8, gen.PBBSRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	graphs["rmat"] = mustRMAT(t, 9, 1)
	var err error
	if graphs["grid"], err = gen.Grid3D(6); err != nil {
		t.Fatal(err)
	}
	if graphs["directed"], err = gen.RMATDirected(8, 4, gen.PBBSRMAT, 2); err != nil {
		t.Fatal(err)
	}
	graphs["weighted"] = mustRMAT(t, 8, 3).AddWeights(graph.HashWeight(1000))

	for name, g := range graphs {
		c, err := Compress(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: sizes differ", name)
		}
		back, err := delta.Materialize(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Compare adjacency exactly.
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			a, aw := g.OutRow(v, nil)
			b, bw := back.OutRow(v, nil)
			if !slices.Equal(a, b) || !slices.Equal(aw, bw) {
				t.Fatalf("%s: vertex %d row differs: %v %v vs %v %v", name, v, a, aw, b, bw)
			}
		}
	}
}

func TestCompressedViewMatchesCSR(t *testing.T) {
	g := mustRMAT(t, 9, 7)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); int(v) < g.NumVertices(); v += 17 {
		if c.OutDegree(v) != g.OutDegree(v) || c.InDegree(v) != g.InDegree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	// A prefix decodes only the first max edges.
	var buf graph.Row
	if ts, _ := c.InRow(0, &buf, 2); len(ts) != min(2, g.InDegree(0)) {
		t.Errorf("InRow(0, max=2) decoded %d edges", len(ts))
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	g := mustRMAT(t, 12, 11)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	csrBytes := int64(g.NumVertices()+1)*8 + g.NumEdges()*4
	if c.SizeBytes() >= csrBytes {
		t.Errorf("compressed %d bytes >= CSR %d bytes", c.SizeBytes(), csrBytes)
	}
	t.Logf("compression ratio: %.2fx (CSR %d -> %d bytes)",
		float64(csrBytes)/float64(c.SizeBytes()), csrBytes, c.SizeBytes())
}

// must unwraps an algorithm run that has no deadline: its only possible
// error is a contained worker panic, re-raised here.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestAlgorithmsOnCompressedGraphs(t *testing.T) {
	g := mustRMAT(t, 9, 5)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	// BFS levels agree with the sequential oracle run on the CSR graph.
	want := seq.BFSLevels(g, 0)
	got := must(algo.BFSLevelsCtx(nil, c, 0, core.Options{}))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("BFS level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	// Components agree.
	wantCC := seq.ConnectedComponents(g)
	gotCC := must(algo.ConnectedComponentsCtx(nil, c, core.Options{}))
	for v := range wantCC {
		if gotCC.Labels[v] != wantCC[v] {
			t.Fatalf("CC label[%d] = %d, want %d", v, gotCC.Labels[v], wantCC[v])
		}
	}
	// Bellman-Ford on a compressed weighted graph agrees with Dijkstra.
	wg := mustRMAT(t, 8, 6).AddWeights(graph.HashWeight(16))
	cw, err := Compress(wg)
	if err != nil {
		t.Fatal(err)
	}
	wantD := seq.Dijkstra(wg, 0)
	gotD := must(algo.BellmanFordCtx(nil, cw, 0, core.Options{}))
	for v := range wantD {
		if gotD.Dist[v] != wantD[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, gotD.Dist[v], wantD[v])
		}
	}
}

func TestCompressRejectsUnsortedRows(t *testing.T) {
	// Hand-build a CSR with an unsorted row.
	g, err := graph.FromCSR([]int64{0, 2}, []uint32{0, 0}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// FromCSR rows {0,0} are sorted (duplicates allowed); craft descending.
	g2, err := graph.FromCSR([]int64{0, 2, 2}, []uint32{1, 0}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(g2); err == nil {
		t.Error("unsorted adjacency accepted")
	}
}

func TestMoreAlgorithmsOnCompressedGraphs(t *testing.T) {
	g := mustRMAT(t, 9, 13)
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	// PageRank agrees to numerical tolerance.
	a := must(algo.PageRankCtx(nil, g, algo.PageRankOptions{Damping: 0.85, Epsilon: 1e-10, MaxIterations: 50}))
	b := must(algo.PageRankCtx(nil, c, algo.PageRankOptions{Damping: 0.85, Epsilon: 1e-10, MaxIterations: 50}))
	for v := range a.Ranks {
		if diff := a.Ranks[v] - b.Ranks[v]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("PageRank differs at %d: %v vs %v", v, a.Ranks[v], b.Ranks[v])
		}
	}
	// BC agrees.
	ba := must(algo.BCCtx(nil, g, 0, core.Options{}))
	bb := must(algo.BCCtx(nil, c, 0, core.Options{}))
	for v := range ba.Scores {
		if diff := ba.Scores[v] - bb.Scores[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("BC differs at %d", v)
		}
	}
	// Radii agrees exactly (same sampled sources for same seed).
	ra := must(algo.RadiiCtx(nil, g, algo.RadiiOptions{K: 16, Seed: 2}))
	rb := must(algo.RadiiCtx(nil, c, algo.RadiiOptions{K: 16, Seed: 2}))
	for v := range ra.Radii {
		if ra.Radii[v] != rb.Radii[v] {
			t.Fatalf("Radii differs at %d", v)
		}
	}
	// KCore agrees.
	ka := must(algo.KCoreCtx(nil, g, core.Options{}))
	kb := must(algo.KCoreCtx(nil, c, core.Options{}))
	for v := range ka.Coreness {
		if ka.Coreness[v] != kb.Coreness[v] {
			t.Fatalf("KCore differs at %d", v)
		}
	}
	// Triangles agree.
	if x, y := must(algo.TriangleCountCtx(nil, g)), must(algo.TriangleCountCtx(nil, c)); x != y {
		t.Fatalf("triangles %d vs %d", x, y)
	}
}
