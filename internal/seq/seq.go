// Package seq contains straightforward sequential implementations of the
// graph problems solved by package algo. They serve two purposes: (1)
// correctness oracles for the test suite, and (2) the hand-written
// baselines against which the framework's abstraction overhead is measured
// in the Table 2 reproduction (the paper compared against both serial
// implementations and other frameworks' published numbers).
package seq

import (
	"container/heap"
	"math"
	"slices"

	"ligra/internal/graph"
)

// BFS returns the parent array of a sequential queue-based breadth-first
// search from source (parent of the source is itself; unreachable vertices
// get ^uint32(0)).
func BFS(g graph.View, source uint32) []uint32 {
	n := g.NumVertices()
	const none = ^uint32(0)
	parents := make([]uint32, n)
	for i := range parents {
		parents[i] = none
	}
	parents[source] = source
	queue := make([]uint32, 0, 1024)
	queue = append(queue, source)
	var buf graph.Row
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if parents[d] == none {
				parents[d] = v
				queue = append(queue, d)
			}
		}
	}
	return parents
}

// BFSLevels returns per-vertex distances (in edges) from source, -1 when
// unreachable.
func BFSLevels(g graph.View, source uint32) []int32 {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[source] = 0
	queue := []uint32{source}
	var buf graph.Row
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if levels[d] == -1 {
				levels[d] = levels[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return levels
}

// ConnectedComponents labels vertices of a symmetric graph with the
// minimum vertex ID of their component, via union-find with union by rank
// and path halving.
func ConnectedComponents(g graph.View) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	rank := make([]uint8, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rank[ra] < rank[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rank[ra] == rank[rb] {
			rank[ra]++
		}
	}
	var buf graph.Row
	for v := uint32(0); int(v) < n; v++ {
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			union(v, d)
		}
	}
	// Normalize to min vertex ID per component.
	minID := make([]uint32, n)
	for i := range minID {
		minID[i] = ^uint32(0)
	}
	for v := uint32(0); int(v) < n; v++ {
		r := find(v)
		if v < minID[r] {
			minID[r] = v
		}
	}
	labels := make([]uint32, n)
	for v := uint32(0); int(v) < n; v++ {
		labels[v] = minID[find(v)]
	}
	return labels
}

// distHeap is a binary heap for Dijkstra keyed by tentative distance.
type distHeap struct {
	dist []int64
	ids  []uint32
	pos  []int32 // pos[v] = index of v in ids, -1 if absent
}

func (h *distHeap) Len() int { return len(h.ids) }
func (h *distHeap) Less(i, j int) bool {
	return h.dist[h.ids[i]] < h.dist[h.ids[j]]
}
func (h *distHeap) Swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}
func (h *distHeap) Push(x any) {
	v := x.(uint32)
	h.pos[v] = int32(len(h.ids))
	h.ids = append(h.ids, v)
}
func (h *distHeap) Pop() any {
	v := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	h.pos[v] = -1
	return v
}

// Dijkstra computes shortest-path distances from source on a graph with
// non-negative weights. Unreachable vertices get maxInt64/4.
func Dijkstra(g graph.View, source uint32) []int64 {
	n := g.NumVertices()
	const inf = int64(math.MaxInt64) / 4
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	h := &distHeap{dist: dist, pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	heap.Push(h, source)
	var buf graph.Row
	for h.Len() > 0 {
		v := heap.Pop(h).(uint32)
		dv := dist[v]
		ts, ws := g.OutRow(v, &buf)
		for i, d := range ts {
			if nd := dv + int64(graph.WeightAt(ws, i)); nd < dist[d] {
				dist[d] = nd
				if h.pos[d] >= 0 {
					heap.Fix(h, int(h.pos[d]))
				} else {
					heap.Push(h, d)
				}
			}
		}
	}
	return dist
}

// BellmanFord computes shortest-path distances from source, supporting
// negative weights; the second return is true if a reachable negative
// cycle exists.
func BellmanFord(g graph.View, source uint32) ([]int64, bool) {
	n := g.NumVertices()
	const inf = int64(math.MaxInt64) / 4
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	var buf graph.Row
	for round := 0; round < n; round++ {
		changed := false
		for v := uint32(0); int(v) < n; v++ {
			if dist[v] >= inf {
				continue
			}
			dv := dist[v]
			ts, ws := g.OutRow(v, &buf)
			for i, d := range ts {
				if nd := dv + int64(graph.WeightAt(ws, i)); nd < dist[d] {
					dist[d] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, false
		}
	}
	return dist, true
}

// PageRank runs sequential power iteration with the same dangling-mass
// correction as algo.PageRankCtx, for use as an oracle.
func PageRank(g graph.View, damping, epsilon float64, maxIters int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	p := make([]float64, n)
	next := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	var buf graph.Row
	for iter := 0; iter < maxIters; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			next[v] = 0
			if g.OutDegree(uint32(v)) == 0 {
				dangling += p[v]
			}
		}
		for v := uint32(0); int(v) < n; v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				continue
			}
			share := p[v] / float64(deg)
			ts, _ := g.OutRow(v, &buf)
			for _, d := range ts {
				next[d] += share
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		var err float64
		for v := 0; v < n; v++ {
			nv := base + damping*next[v]
			err += math.Abs(nv - p[v])
			p[v] = nv
		}
		if epsilon > 0 && err < epsilon {
			break
		}
	}
	return p
}

// BC computes Brandes' single-source dependency scores sequentially.
func BC(g graph.View, source uint32) []float64 {
	n := g.NumVertices()
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma[source] = 1
	dist[source] = 0
	order := make([]uint32, 0, n)
	queue := []uint32{source}
	var buf graph.Row
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if dist[d] == -1 {
				dist[d] = dist[v] + 1
				queue = append(queue, d)
			}
			if dist[d] == dist[v]+1 {
				sigma[d] += sigma[v]
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if dist[d] == dist[v]+1 {
				delta[v] += sigma[v] / sigma[d] * (1 + delta[d])
			}
		}
	}
	return delta
}

// Eccentricities returns, for each vertex, the maximum BFS distance to it
// from any of the given sources (-1 if unreached) — the quantity algo.Radii
// estimates. Sources must be valid vertex IDs.
func Eccentricities(g graph.View, sources []uint32) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for _, s := range sources {
		lv := BFSLevels(g, s)
		for v := 0; v < n; v++ {
			if lv[v] > out[v] {
				out[v] = lv[v]
			}
		}
	}
	return out
}

// TriangleCount counts triangles (unordered vertex triples with all three
// edges present) in a symmetric simple graph by rank-ordered adjacency
// intersection, sequentially.
func TriangleCount(g graph.View) int64 {
	n := g.NumVertices()
	// rank order: by (degree, id); forward neighbors only.
	higher := func(u, v uint32) bool {
		du, dv := g.OutDegree(u), g.OutDegree(v)
		return dv > du || (dv == du && v > u)
	}
	fwd := make([][]uint32, n)
	var buf graph.Row
	for v := uint32(0); int(v) < n; v++ {
		ts, _ := g.OutRow(v, &buf)
		for _, d := range ts {
			if higher(v, d) {
				fwd[v] = append(fwd[v], d)
			}
		}
		sortU32(fwd[v])
	}
	var count int64
	for v := 0; v < n; v++ {
		for _, u := range fwd[v] {
			count += intersectCount(fwd[v], fwd[u])
		}
	}
	return count
}

// ClusteringCoefficients returns each vertex's local clustering
// coefficient in a symmetric simple graph by brute force: the share of its
// neighbour pairs that are adjacent themselves (0 below degree 2).
func ClusteringCoefficients(g graph.View) []float64 {
	n := g.NumVertices()
	adj := make([][]uint32, n)
	var buf graph.Row
	for v := range adj {
		ts, _ := g.OutRow(uint32(v), &buf)
		adj[v] = slices.Clone(ts)
		sortU32(adj[v])
	}
	out := make([]float64, n)
	for v, nb := range adj {
		var linked int64
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				if _, ok := slices.BinarySearch(adj[a], b); ok {
					linked++
				}
			}
		}
		if d := int64(len(nb)); d >= 2 {
			out[v] = float64(linked) / float64(d*(d-1)/2)
		}
	}
	return out
}

func sortU32(s []uint32) {
	// insertion sort is fine for the small adjacency lists oracles use;
	// fall back to a simple quicksort for longer runs.
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	quickU32(s)
}

func quickU32(s []uint32) {
	for len(s) > 32 {
		p := s[len(s)/2]
		i, j := 0, len(s)-1
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j > len(s)-i {
			quickU32(s[i:])
			s = s[:j+1]
		} else {
			quickU32(s[:j+1])
			s = s[i:]
		}
	}
	sortU32(s)
}

func intersectCount(a, b []uint32) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
