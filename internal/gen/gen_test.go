package gen

import (
	"os"
	"strings"
	"testing"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

func TestMain(m *testing.M) {
	parallel.SetProcs(4)
	os.Exit(m.Run())
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip many output bits on average.
	base := mix64(12345)
	for bit := 0; bit < 64; bit++ {
		diff := base ^ mix64(12345^(1<<uint(bit)))
		ones := 0
		for diff != 0 {
			ones++
			diff &= diff - 1
		}
		if ones < 10 {
			t.Errorf("bit %d: only %d output bits flipped", bit, ones)
		}
	}
}

func TestUniform01Range(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := uniform01(hash2(99, i))
		if u < 0 || u >= 1 {
			t.Fatalf("uniform01 out of range: %v", u)
		}
	}
}

func TestUniformNRange(t *testing.T) {
	const n = 17
	var seen [n]bool
	for i := uint64(0); i < 10000; i++ {
		v := uniformN(hash2(5, i), n)
		if v >= n {
			t.Fatalf("uniformN out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("value %d never drawn in 10000 samples", i)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
		{0xDEADBEEF, 0x12345678, 0, 0xDEADBEEF * 0x12345678},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func checkSymmetricSimple(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	if !g.Symmetric() {
		t.Fatalf("%s: not symmetric", name)
	}
	if err := graph.Validate(g); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s := graph.ComputeStats(g)
	if s.SelfLoops != 0 {
		t.Errorf("%s: %d self-loops", name, s.SelfLoops)
	}
}

func TestRMATDeterministicAndValid(t *testing.T) {
	g1, err := RMAT(10, 8, PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(10, 8, PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Errorf("same seed, different edge counts: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	g3, err := RMAT(10, 8, PBBSRMAT, 43)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() == g3.NumEdges() && graphIdentical(g1, g3) {
		t.Error("different seeds produced identical graphs")
	}
	checkSymmetricSimple(t, g1, "rmat")
	if g1.NumVertices() != 1024 {
		t.Errorf("n = %d, want 1024", g1.NumVertices())
	}
}

func graphIdentical(a, b *graph.Graph) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

func TestRMATSkew(t *testing.T) {
	// R-MAT must have a much heavier max degree than a uniform graph of
	// the same size.
	rm, err := RMAT(12, 8, Graph500RMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(1<<12, 8<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, es := graph.ComputeStats(rm), graph.ComputeStats(er)
	if rs.MaxOutDeg <= 2*es.MaxOutDeg {
		t.Errorf("rMAT max degree %d not skewed vs ER %d", rs.MaxOutDeg, es.MaxOutDeg)
	}
}

func TestRMATRejectsBadScale(t *testing.T) {
	if _, err := RMAT(0, 8, PBBSRMAT, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(31, 8, PBBSRMAT, 1); err == nil {
		t.Error("scale 31 accepted")
	}
}

func TestRMATDirected(t *testing.T) {
	g, err := RMATDirected(8, 8, PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Symmetric() {
		t.Error("directed rMAT reported symmetric")
	}
	if err := graph.Validate(g); err != nil {
		t.Error(err)
	}
}

func TestRandomLocal(t *testing.T) {
	g, err := RandomLocal(1000, 5, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, g, "randLocal")
	// Locality: every edge must span at most window/2 (mod wrap).
	n := g.NumVertices()
	for v := uint32(0); int(v) < n; v++ {
		ts, _ := g.OutRow(v, nil)
		for _, d := range ts {
			dist := int(d) - int(v)
			if dist < 0 {
				dist = -dist
			}
			if wrap := n - dist; wrap < dist {
				dist = wrap
			}
			if dist > 50+1 {
				t.Fatalf("edge %d-%d spans %d, window 100", v, d, dist)
			}
		}
	}
	// Degree is near-uniform: max degree bounded by 2*degree (sym).
	s := graph.ComputeStats(g)
	if s.MaxOutDeg > 20 {
		t.Errorf("randLocal max degree %d too large", s.MaxOutDeg)
	}
}

func TestRandomLocalWholeRange(t *testing.T) {
	g, err := RandomLocal(500, 4, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, g, "randLocal-global")
}

func TestGrid3D(t *testing.T) {
	side := 5
	g, err := Grid3D(side)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, g, "grid3d")
	if g.NumVertices() != side*side*side {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Torus: every vertex has exactly 6 neighbors (all distinct for side>=3).
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(uint32(v)); d != 6 {
			t.Fatalf("vertex %d degree %d, want 6", v, d)
		}
	}
}

func TestGrid3DSmallSides(t *testing.T) {
	if _, err := Grid3D(1); err == nil {
		t.Error("side 1 accepted")
	}
	// side=2 wraps onto the same neighbor twice; dedup keeps it simple.
	g, err := Grid3D(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Validate(g); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(200, 800, 11)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, g, "er")
}

func TestStructuredGraphs(t *testing.T) {
	p, err := Path(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 18 {
		t.Errorf("path edges = %d, want 18", p.NumEdges())
	}
	if p.OutDegree(0) != 1 || p.OutDegree(5) != 2 {
		t.Error("path degrees wrong")
	}

	c, err := Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		if c.OutDegree(uint32(v)) != 2 {
			t.Fatalf("cycle degree of %d is %d", v, c.OutDegree(uint32(v)))
		}
	}

	s, err := Star(10)
	if err != nil {
		t.Fatal(err)
	}
	if s.OutDegree(0) != 9 || s.OutDegree(1) != 1 {
		t.Error("star degrees wrong")
	}

	k, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumEdges() != 30 {
		t.Errorf("K6 edges = %d, want 30", k.NumEdges())
	}

	b, err := BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	if b.OutDegree(0) != 2 || b.OutDegree(14) != 1 {
		t.Error("tree degrees wrong")
	}

	for _, bad := range []func() error{
		func() error { _, e := Path(0); return e },
		func() error { _, e := Cycle(2); return e },
		func() error { _, e := Star(1); return e },
		func() error { _, e := Complete(0); return e },
		func() error { _, e := BinaryTree(0); return e },
	} {
		if bad() == nil {
			t.Error("invalid size accepted")
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	// p=0: pure ring lattice, every vertex has degree exactly 2k.
	g, err := WattsStrogatz(200, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, g, "ws-ring")
	for v := 0; v < 200; v++ {
		if d := g.OutDegree(uint32(v)); d != 6 {
			t.Fatalf("ring lattice degree %d at %d, want 6", d, v)
		}
	}
	// p=1: heavily rewired; still valid, same edge budget (minus dedup).
	r, err := WattsStrogatz(200, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricSimple(t, r, "ws-rewired")
	if r.NumEdges() > g.NumEdges() {
		t.Errorf("rewired graph has more edges (%d) than the lattice (%d)", r.NumEdges(), g.NumEdges())
	}
	// Rewiring shrinks diameter: compare BFS depth from 0.
	if _, err := WattsStrogatz(10, 5, 0, 1); err == nil {
		t.Error("2k >= n accepted")
	}
	if _, err := WattsStrogatz(10, 2, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
}

// TestFamily: "rmat" is RMAT at edge factor 16 with the PBBS
// probabilities, edge for edge — the graph the benchmark builds for its
// apps-rmat workload — and an unknown name is an error naming the families.
func TestFamily(t *testing.T) {
	for _, seed := range []uint64{0, 7} {
		got, err := Family("rmat", 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RMAT(10, 16, PBBSRMAT, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumVertices() != want.NumVertices() || !graphIdentical(got, want) {
			t.Errorf("seed %d: Family(\"rmat\") differs from RMAT(10, 16, PBBSRMAT)", seed)
		}
	}
	if _, err := Family("rmat16", 10, 0); err == nil || !strings.Contains(err.Error(), familyNames) {
		t.Errorf("unknown family: err = %v, want one listing %q", err, familyNames)
	}
}
