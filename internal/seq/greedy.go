package seq

import "ligra/internal/graph"

// GreedyColoring colors a symmetric graph greedily in the given vertex
// order (a permutation of its vertices): each vertex takes the smallest
// color no already-colored neighbor holds. It is the result
// algo.Coloring's rounds must reproduce when order is its priority order.
func GreedyColoring(g graph.View, order []uint32) []int32 {
	colors := make([]int32, g.NumVertices())
	for i := range colors {
		colors[i] = -1
	}
	var buf graph.Row
	for _, v := range order {
		ts, _ := g.OutRow(v, &buf)
		used := make([]bool, len(ts)+1)
		for _, d := range ts {
			if c := colors[d]; c >= 0 && int(c) <= len(ts) {
				used[c] = true
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// GreedyMIS builds a maximal independent set of a symmetric graph
// greedily in the given vertex order (a permutation of its vertices): a
// vertex joins unless a neighbor other than itself already has. It is the
// set algo.MISCtx's rounds must reproduce when order is its priority
// order.
func GreedyMIS(g graph.View, order []uint32) []bool {
	in := make([]bool, g.NumVertices())
	var buf graph.Row
	for _, v := range order {
		ts, _ := g.OutRow(v, &buf)
		in[v] = true
		for _, d := range ts {
			if d != v && in[d] {
				in[v] = false
				break
			}
		}
	}
	return in
}
