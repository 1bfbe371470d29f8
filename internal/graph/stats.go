package graph

import (
	"fmt"

	"ligra/internal/parallel"
)

// Stats summarizes a graph's structure; used by Table 1 of the evaluation
// and by the CLI tools.
type Stats struct {
	Vertices    int
	Edges       int64
	Symmetric   bool
	Weighted    bool
	MaxOutDeg   int
	MaxInDeg    int
	AvgDeg      float64
	ZeroDegree  int   // vertices with out-degree 0
	SelfLoops   int64 // edges with Src == Dst
	MemoryBytes int64 // backend-reported footprint (0 when the view does not expose one)
}

// ComputeStats scans g and returns its Stats. It accepts any View; the
// memory figure comes from the optional MemoryFootprint method and is 0
// for backends that do not report one.
func ComputeStats(g View) Stats {
	n := g.NumVertices()
	s := Stats{
		Vertices:  n,
		Edges:     g.NumEdges(),
		Symmetric: g.Symmetric(),
		Weighted:  g.Weighted(),
	}
	if n > 0 {
		s.MaxOutDeg = parallel.MaxFunc(n, func(i int) int { return g.OutDegree(uint32(i)) })
		s.MaxInDeg = parallel.MaxFunc(n, func(i int) int { return g.InDegree(uint32(i)) })
		s.AvgDeg = float64(g.NumEdges()) / float64(n)
		s.ZeroDegree = parallel.CountFunc(n, func(i int) bool { return g.OutDegree(uint32(i)) == 0 })
	}
	s.SelfLoops = parallel.SumFunc(n, func(i int) int64 {
		v := uint32(i)
		var c int64
		g.OutNeighbors(v, func(d uint32, _ int32) bool {
			if d == v {
				c++
			}
			return true
		})
		return c
	})
	if mf, ok := g.(interface{ MemoryFootprint() int64 }); ok {
		s.MemoryBytes = mf.MemoryFootprint()
	}
	return s
}

// MemoryFootprint returns the approximate resident size of the CSR arrays
// in bytes. Unlike ComputeStats it does not scan edges, so it is cheap
// enough to call on every registry listing or metrics render.
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.edges))*4 +
		int64(len(g.weights))*4 + int64(len(g.inOffsets))*8 +
		int64(len(g.inEdges))*4 + int64(len(g.inWeights))*4
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	kind := "directed"
	if s.Symmetric {
		kind = "symmetric"
	}
	w := ""
	if s.Weighted {
		w = " weighted"
	}
	return fmt.Sprintf("%s%s graph: n=%d m=%d avgdeg=%.2f maxout=%d maxin=%d zerodeg=%d selfloops=%d mem=%dB",
		kind, w, s.Vertices, s.Edges, s.AvgDeg, s.MaxOutDeg, s.MaxInDeg, s.ZeroDegree, s.SelfLoops, s.MemoryBytes)
}

// Validate checks internal CSR invariants and, for symmetric graphs, that
// every edge has its reverse. It returns nil if the graph is well formed.
func Validate(g *Graph) error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 || g.offsets[n] != g.m {
		return fmt.Errorf("graph: offsets endpoints [%d, %d], want [0, %d]",
			g.offsets[0], g.offsets[n], g.m)
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets decrease at %d", v)
		}
	}
	for i, d := range g.edges {
		if int(d) >= n {
			return fmt.Errorf("graph: edge %d out of range (%d >= %d)", i, d, n)
		}
	}
	if !g.symmetric {
		if len(g.inOffsets) != n+1 {
			return fmt.Errorf("graph: missing transpose on a directed graph")
		}
		var inM int64
		for v := 0; v < n; v++ {
			inM += int64(g.InDegree(uint32(v)))
		}
		if inM != g.m {
			return fmt.Errorf("graph: transpose has %d edges, want %d", inM, g.m)
		}
	} else {
		// Spot-check reversibility: count of (s,d) must equal count of (d,s).
		// Full verification is O(m log m); we do it exactly with a hash of
		// unordered pairs which must cancel out.
		var asym int64
		for v := uint32(0); int(v) < n; v++ {
			g.OutNeighbors(v, func(d uint32, _ int32) bool {
				if !hasEdge(g, d, v) {
					asym++
				}
				return true
			})
		}
		if asym != 0 {
			return fmt.Errorf("graph: symmetric graph has %d unpaired edges", asym)
		}
	}
	return nil
}

// hasEdge reports whether g has a directed edge s->d (binary search over the
// sorted CSR row when rows are sorted, falling back to a linear scan).
func hasEdge(g *Graph, s, d uint32) bool {
	row, _ := g.OutRow(s)
	// Rows built by FromEdges are sorted; rows from arbitrary CSR may not
	// be. Detect sortedness cheaply for the common case.
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == d {
		return true
	}
	for _, x := range row {
		if x == d {
			return true
		}
	}
	return false
}
