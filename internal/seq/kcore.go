package seq

import "ligra/internal/graph"

// KCore computes every vertex's coreness sequentially with the
// Batagelj-Zaversnik bucket peel, O(n + m): vertices sit in an array sorted
// by current degree, the lowest is removed with its degree as its
// coreness, and each neighbor still above that degree moves down one
// bucket. A vertex's degree is its out-degree and removing v decrements
// v's out-neighbors, the rule algo.KCoreCtx peels by, so the two agree on
// directed graphs too.
func KCore(g graph.View) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = int32(g.OutDegree(uint32(v)))
		maxDeg = max(maxDeg, deg[v])
	}
	// start[d] is the first position of degree-d vertices in order.
	start := make([]int32, maxDeg+2)
	for _, d := range deg {
		start[d+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		start[d] += start[d-1]
	}
	order := make([]uint32, n)
	pos := make([]int32, n)
	next := append([]int32(nil), start...)
	for v, d := range deg {
		pos[v] = next[d]
		order[pos[v]] = uint32(v)
		next[d]++
	}
	var buf graph.Row
	for i := range order {
		v := order[i]
		ts, _ := g.OutRow(v, &buf)
		for _, u := range ts {
			if du := deg[u]; du > deg[v] {
				// Swap u with the first vertex of its bucket, then shrink
				// the bucket past it: u is now the last of bucket du-1.
				w, pw := order[start[du]], start[du]
				order[pos[u]], order[pw] = w, u
				pos[w], pos[u] = pos[u], pw
				start[du]++
				deg[u]--
			}
		}
	}
	return deg
}
