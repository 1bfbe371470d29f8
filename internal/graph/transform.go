package graph

import (
	"cmp"
	"context"
	"fmt"

	"ligra/internal/parallel"
)

// Relabel returns a copy of g with vertex IDs renamed by the permutation
// perm, where perm[old] = new. The permutation must be a bijection on
// [0, n). Relabeling is the standard locality optimization: placing
// related vertices near each other improves cache behaviour of
// traversals (and feeds the Ligra+ gap encoder smaller deltas).
func Relabel(g *Graph, perm []uint32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a bijection (value %d)", p)
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := uint32(0); int(v) < n; v++ {
		ts, ws := g.OutRow(v, nil)
		for i, d := range ts {
			edges = append(edges, Edge{Src: perm[v], Dst: perm[d], Weight: WeightAt(ws, i)})
		}
	}
	ng, err := FromEdges(n, edges, BuildOptions{Weighted: g.Weighted()})
	if err != nil {
		return nil, err
	}
	// The edge list already contains both directions when g is symmetric;
	// re-symmetrizing would duplicate it, so just restore the flag.
	ng.symmetric = g.Symmetric()
	return ng, nil
}

// DegreeOrderPermutation returns the permutation that renames vertices in
// decreasing out-degree order (ties by original ID): perm[old] = rank.
// It radix-sorts the identity order by maxDeg - OutDegree(v); the sort is
// stable, so equal degrees keep their ID order.
func DegreeOrderPermutation(g View) []uint32 {
	n := g.NumVertices()
	perm := make([]uint32, n)
	if n == 0 {
		return perm
	}
	// No deadline to observe: the loops fail only with a contained panic,
	// which is re-raised.
	ctx := context.Background()
	order := make([]uint32, n)
	maxDeg, err := parallel.MaxFunc(ctx, n, func(v int) int64 { return int64(g.OutDegree(uint32(v))) })
	if err != nil {
		panic(err)
	}
	if err := cmp.Or(
		parallel.Iota(ctx, order, 0),
		parallel.RadixSortByKey(ctx, order, nil, maxDeg+1, func(v uint32) int64 {
			return maxDeg - int64(g.OutDegree(v))
		}),
		parallel.For(ctx, n, func(rank int) { perm[order[rank]] = uint32(rank) }),
	); err != nil {
		panic(err)
	}
	return perm
}

// InducedSubgraph returns the subgraph induced by keep (keep[v] reports
// whether v survives), along with old->new and new->old vertex ID maps.
// Edges with either endpoint dropped are removed. The result has the
// survivors renumbered densely in increasing original-ID order.
func InducedSubgraph(g *Graph, keep func(v uint32) bool) (*Graph, []uint32, []uint32, error) {
	n := g.NumVertices()
	newID := make([]uint32, n)
	oldID := make([]uint32, 0, n)
	var count uint32
	for v := uint32(0); int(v) < n; v++ {
		if keep(v) {
			newID[v] = count
			oldID = append(oldID, v)
			count++
		} else {
			newID[v] = ^uint32(0)
		}
	}
	if count == 0 {
		return nil, nil, nil, fmt.Errorf("graph: induced subgraph is empty")
	}
	var edges []Edge
	for _, v := range oldID {
		ts, ws := g.OutRow(v, nil)
		for i, d := range ts {
			if newID[d] != ^uint32(0) {
				edges = append(edges, Edge{Src: newID[v], Dst: newID[d], Weight: WeightAt(ws, i)})
			}
		}
	}
	sub, err := FromEdges(int(count), edges, BuildOptions{Weighted: g.Weighted()})
	if err != nil {
		return nil, nil, nil, err
	}
	sub.symmetric = g.Symmetric()
	return sub, newID, oldID, nil
}

// FilterEdges returns a copy of g keeping only edges with keep(s, d, w)
// true — Ligra's packEdges/edgeFilter as a whole-graph operation. For
// symmetric graphs keep must itself be symmetric in (s, d) or the result
// will fail validation.
func FilterEdges(g *Graph, keep func(s, d uint32, w int32) bool) (*Graph, error) {
	n := g.NumVertices()
	var edges []Edge
	for v := uint32(0); int(v) < n; v++ {
		ts, ws := g.OutRow(v, nil)
		for i, d := range ts {
			if w := WeightAt(ws, i); keep(v, d, w) {
				edges = append(edges, Edge{Src: v, Dst: d, Weight: w})
			}
		}
	}
	ng, err := FromEdges(n, edges, BuildOptions{Weighted: g.Weighted()})
	if err != nil {
		return nil, err
	}
	ng.symmetric = g.Symmetric()
	return ng, nil
}
