package gen

import (
	"context"
	"fmt"

	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// RMATParams configures the recursive-matrix (R-MAT) generator of Chakrabarti
// et al., the power-law family used for Ligra's rMat inputs and for the
// scaled-down stand-ins for the Twitter and Yahoo graphs.
type RMATParams struct {
	// A, B, C are the recursion probabilities for the top-left, top-right
	// and bottom-left quadrants; the bottom-right gets 1-A-B-C. Larger A
	// yields heavier degree skew.
	A, B, C float64
	// NoiseAmplitude perturbs the probabilities per recursion level, the
	// standard trick ("smoothing") that avoids exact self-similarity.
	NoiseAmplitude float64
}

// PBBSRMAT matches the defaults of the PBBS rMat generator used by the
// paper (a=0.5, b=c=0.1).
var PBBSRMAT = RMATParams{A: 0.5, B: 0.1, C: 0.1, NoiseAmplitude: 0.05}

// Graph500RMAT matches the Graph500 benchmark parameters, producing heavier
// skew (used for the twitter-sim / yahoo-sim substitutes).
var Graph500RMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, NoiseAmplitude: 0.05}

// RMAT generates a symmetrized R-MAT graph with 2^scale vertices and
// approximately edgeFactor*2^scale undirected edges (before deduplication).
func RMAT(scale int, edgeFactor int, params RMATParams, seed uint64) (*graph.Graph, error) {
	edges, err := rmatEdges(scale, edgeFactor, params, seed)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(1<<scale, edges, graph.BuildOptions{
		Symmetrize:       true,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// RMATDirected is RMAT without symmetrization, for directed-graph tests.
func RMATDirected(scale int, edgeFactor int, params RMATParams, seed uint64) (*graph.Graph, error) {
	edges, err := rmatEdges(scale, edgeFactor, params, seed)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(1<<scale, edges, graph.BuildOptions{
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// rmatEdges draws the edgeFactor*2^scale edges of an R-MAT graph, a chunk
// of consecutive edge indices per call of the loop body.
func rmatEdges(scale int, edgeFactor int, params RMATParams, seed uint64) ([]graph.Edge, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("gen: rmat scale %d out of range [1, 30]", scale)
	}
	edges := make([]graph.Edge, (1<<scale)*edgeFactor)
	err := parallel.ForRange(context.Background(), len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := rmatEdge(scale, params, seed, uint64(i))
			edges[i] = graph.Edge{Src: s, Dst: d}
		}
	})
	return edges, err
}

// levelMix[level] is the level's half of hash3(seed, i, level), so the
// descent hashes once per level instead of three times.
var levelMix = func() (t [31]uint64) {
	for level := range t {
		t[level] = mix64(uint64(level) + 0x9E6C63D0876A9A47)
	}
	return t
}()

// rmatEdge draws the i-th edge by descending the 2^scale x 2^scale
// adjacency matrix, choosing a quadrant per level: with the level's
// noisy probabilities a, b, c, the draw r picks top-left below a,
// top-right below a+b, bottom-left below a+b+c and bottom-right above.
// The quadrant's bits are computed from the comparisons, not branched
// on, because the branch mispredicts on most levels.
func rmatEdge(scale int, p RMATParams, seed, i uint64) (uint32, uint32) {
	var s, d uint32
	base := hash2(seed, i)
	for level := 0; level < scale; level++ {
		h := mix64(base ^ levelMix[level]) // hash3(seed, i, level)
		r := uniform01(h)
		// Per-level noise, deterministic in (seed, i, level).
		noise := (uniform01(mix64(h)) - 0.5) * 2 * p.NoiseAmplitude
		a := p.A * (1 + noise)
		b := p.B * (1 - noise)
		c := p.C * (1 + noise)
		ab := a + b
		s = s<<1 | atLeast(r, ab)
		d = d<<1 | (atLeast(r, a) ^ atLeast(r, ab) ^ atLeast(r, ab+c))
	}
	return s, d
}

// atLeast is 1 when r >= x and 0 otherwise, without a branch.
func atLeast(r, x float64) uint32 {
	var b uint32
	if r >= x {
		b = 1
	}
	return b
}

// RandomLocal generates the "randLocal" family: a symmetric graph where
// each vertex draws degree edges to targets chosen uniformly inside a
// window of size window centered on the vertex (wrapping around), giving
// uniform degrees with spatial locality like the PBBS randLocal inputs.
// window <= 0 selects the whole vertex range (a plain random regular-ish
// graph).
func RandomLocal(n, degree, window int, seed uint64) (*graph.Graph, error) {
	if n <= 0 || degree < 0 {
		return nil, fmt.Errorf("gen: bad randLocal parameters n=%d degree=%d", n, degree)
	}
	if window <= 0 || window > n {
		window = n
	}
	m := n * degree
	edges := make([]graph.Edge, m)
	if err := parallel.For(context.Background(), m, func(i int) {
		v := i / degree
		h := hash3(seed, uint64(v), uint64(i%degree))
		off := int(uniformN(h, uint64(window)))
		d := (v + off - window/2 + n) % n
		if d < 0 {
			d += n
		}
		edges[i] = graph.Edge{Src: uint32(v), Dst: uint32(d)}
	}); err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize:       true,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// Grid3D generates the 3d-grid family: vertices arranged in a side^3 torus,
// each connected to its six axis neighbors (wrapping), the high-diameter
// mesh input of Table 1. The returned graph has side^3 vertices.
func Grid3D(side int) (*graph.Graph, error) {
	if side < 2 {
		return nil, fmt.Errorf("gen: grid3d side %d must be >= 2", side)
	}
	n := side * side * side
	if n > 1<<31 {
		return nil, fmt.Errorf("gen: grid3d side %d overflows vertex IDs", side)
	}
	// Each vertex emits +x, +y, +z edges; symmetrization adds the rest.
	m := 3 * n
	edges := make([]graph.Edge, m)
	if err := parallel.For(context.Background(), n, func(v int) {
		x := v % side
		y := (v / side) % side
		z := v / (side * side)
		id := func(x, y, z int) uint32 {
			return uint32(((z%side)*side+(y%side))*side + (x % side))
		}
		edges[3*v+0] = graph.Edge{Src: uint32(v), Dst: id(x+1, y, z)}
		edges[3*v+1] = graph.Edge{Src: uint32(v), Dst: id(x, y+1, z)}
		edges[3*v+2] = graph.Edge{Src: uint32(v), Dst: id(x, y, z+1)}
	}); err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize:       true,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// ErdosRenyi generates a symmetric G(n, m) random graph: m undirected edges
// with both endpoints uniform.
func ErdosRenyi(n, m int, seed uint64) (*graph.Graph, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("gen: bad ER parameters n=%d m=%d", n, m)
	}
	edges := make([]graph.Edge, m)
	if err := parallel.For(context.Background(), m, func(i int) {
		h := hash2(seed, uint64(i))
		s := uint32(uniformN(h, uint64(n)))
		d := uint32(uniformN(mix64(h), uint64(n)))
		edges[i] = graph.Edge{Src: s, Dst: d}
	}); err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize:       true,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors on each side, with every
// edge's far endpoint rewired to a uniform random vertex with probability
// p. Deterministic in the seed.
func WattsStrogatz(n, k int, p float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 || k < 1 || 2*k >= n {
		return nil, fmt.Errorf("gen: bad WS parameters n=%d k=%d", n, k)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: WS rewiring probability %v out of [0,1]", p)
	}
	m := n * k
	edges := make([]graph.Edge, m)
	if err := parallel.For(context.Background(), m, func(i int) {
		v := i / k
		j := i%k + 1
		d := (v + j) % n
		h := hash3(seed, uint64(v), uint64(j))
		if uniform01(h) < p {
			d = int(uniformN(mix64(h), uint64(n)))
		}
		edges[i] = graph.Edge{Src: uint32(v), Dst: uint32(d)}
	}); err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize:       true,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
	})
}

// Path returns the path graph 0-1-2-...-(n-1), symmetric.
func Path(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: path size %d must be positive", n)
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v < n-1; v++ {
		edges = append(edges, graph.Edge{Src: uint32(v), Dst: uint32(v + 1)})
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// Cycle returns the n-cycle, symmetric.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle size %d must be >= 3", n)
	}
	edges := make([]graph.Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = graph.Edge{Src: uint32(v), Dst: uint32((v + 1) % n)}
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// Star returns the star with center 0 and n-1 leaves, symmetric.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: star size %d must be >= 2", n)
	}
	edges := make([]graph.Edge, n-1)
	for v := 1; v < n; v++ {
		edges[v-1] = graph.Edge{Src: 0, Dst: uint32(v)}
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// Complete returns the complete graph K_n, symmetric.
func Complete(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: complete size %d must be >= 1", n)
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{Src: uint32(u), Dst: uint32(v)})
		}
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// BinaryTree returns the complete binary tree on n vertices (vertex v has
// children 2v+1 and 2v+2), symmetric.
func BinaryTree(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: tree size %d must be >= 1", n)
	}
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: uint32((v - 1) / 2), Dst: uint32(v)})
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// familyNames lists the families Family generates.
const familyNames = "rmat | grid3d | randlocal | twitter-sim"

// Family generates a named family at 2^scale vertices with the parameters
// ligra-run and ligra-serve share: rmat is edge factor 16 with the PBBS
// probabilities, twitter-sim edge factor 15 with Graph500's, randlocal
// degree 10 within a window of n/16, and grid3d the smallest cube of at
// least 2^scale vertices (it ignores seed).
func Family(name string, scale int, seed uint64) (*graph.Graph, error) {
	switch name {
	case "rmat":
		return RMAT(scale, 16, PBBSRMAT, seed)
	case "twitter-sim":
		return RMAT(scale, 15, Graph500RMAT, seed)
	case "grid3d":
		side := 1
		for side*side*side < 1<<scale {
			side++
		}
		return Grid3D(side)
	case "randlocal":
		n := 1 << scale
		return RandomLocal(n, 10, n/16, seed)
	}
	return nil, fmt.Errorf("unknown generator %q (have %s)", name, familyNames)
}
