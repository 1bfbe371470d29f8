package algo

import (
	"cmp"
	"context"
	"sync/atomic"

	"ligra/internal/bitset"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// SCCResult carries the output of strongly-connected-components labeling.
type SCCResult struct {
	// Labels[v] identifies v's strongly connected component; labels are
	// the minimum vertex ID in the component.
	Labels []uint32
	// Components is the number of strongly connected components.
	Components int
}

// SCCCtx computes strongly connected components of a directed graph with
// the classic parallel forward-backward (FW-BW) decomposition: pick a
// pivot, find its descendants (BFS over out-edges) and ancestors (BFS over
// in-edges); their intersection is the pivot's SCC, and the three
// remaining regions (descendants-only, ancestors-only, rest) contain no
// crossing SCC, so they recurse independently. Reachability searches are
// edgeMaps restricted to the active region via Cond.
//
// Cancellation is observed between FW-BW pivot steps and at chunk
// granularity inside the reachability edgeMaps. On interruption Labels is
// exact for every component finished so far (core.None for the rest) and
// Components counts only finished components; the *RoundError's Round
// counts completed pivot steps.
func SCCCtx(ctx context.Context, g graph.View, opts core.Options) (*SCCResult, error) {
	n := g.NumVertices()
	labels := make([]uint32, n)
	pivots := 0
	finish := func(err error) (*SCCResult, error) {
		components, cerr := parallel.CountFunc(ctx, n, func(i int) bool { return labels[i] == uint32(i) })
		return &SCCResult{Labels: labels, Components: components},
			roundErr("scc", pivots, cmp.Or(err, cerr))
	}

	// region[v] identifies the partition piece v currently belongs to;
	// pieces are processed from an explicit stack of region IDs with one
	// representative member set each. Unassigned = labeled already.
	region := make([]uint32, n)

	type task struct {
		id      uint32   // region ID to match
		members []uint32 // vertices of the region (sparse)
	}
	all := make([]uint32, n)
	if err := cmp.Or(fill(ctx, labels, core.None), parallel.Iota(ctx, all, 0)); err != nil {
		return finish(err)
	}
	stack := []task{{id: 0, members: all}}
	nextRegion := uint32(1)

	gT := TransposeView(g)

	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Filter out members already labeled (region changed).
		members, err := parallel.Filter(ctx, t.members, func(v uint32) bool {
			return labels[v] == core.None && region[v] == t.id
		})
		if err != nil {
			return finish(err)
		}
		if len(members) == 0 {
			continue
		}
		if len(members) == 1 {
			labels[members[0]] = members[0]
			continue
		}
		// Pivot: the minimum ID makes labels canonical per region...
		// actually the SCC label must be the min ID *of the SCC*, which
		// we fix after reachability; any pivot works, use members[0].
		pivot := members[0]

		fwd, err := reachableWithin(ctx, g, pivot, region, t.id, labels, opts)
		if err != nil {
			return finish(err)
		}
		bwd, err := reachableWithin(ctx, gT, pivot, region, t.id, labels, opts)
		if err != nil {
			return finish(err)
		}
		pivots++

		// SCC = fwd ∩ bwd; partition the rest into three new regions.
		idFwd, idBwd, idRest := nextRegion, nextRegion+1, nextRegion+2
		nextRegion += 3
		var sccMin atomic.Uint32
		sccMin.Store(pivot)
		if err := parallel.For(ctx, len(members), func(i int) {
			v := members[i]
			inF, inB := fwd.Get(int(v)), bwd.Get(int(v))
			switch {
			case inF && inB:
				// member of the pivot's SCC; track the minimum ID.
				for {
					cur := sccMin.Load()
					if v >= cur || sccMin.CompareAndSwap(cur, v) {
						break
					}
				}
			case inF:
				region[v] = idFwd
			case inB:
				region[v] = idBwd
			default:
				region[v] = idRest
			}
		}); err != nil {
			return finish(err)
		}
		minID := sccMin.Load()
		var fwdM, bwdM, restM []uint32
		for _, v := range members {
			switch {
			case fwd.Get(int(v)) && bwd.Get(int(v)):
				labels[v] = minID
			case region[v] == idFwd:
				fwdM = append(fwdM, v)
			case region[v] == idBwd:
				bwdM = append(bwdM, v)
			default:
				restM = append(restM, v)
			}
		}
		if len(fwdM) > 0 {
			stack = append(stack, task{id: idFwd, members: fwdM})
		}
		if len(bwdM) > 0 {
			stack = append(stack, task{id: idBwd, members: bwdM})
		}
		if len(restM) > 0 {
			stack = append(stack, task{id: idRest, members: restM})
		}
	}

	return finish(nil)
}

// reachableWithin runs a BFS from pivot over g's out-edges restricted to
// unlabeled vertices of the given region, returning the visited bitset.
// Cancellation (ctx) aborts the traversal and reports the error; the
// bitset is then incomplete and discarded by the caller.
func reachableWithin(ctx context.Context, g graph.View, pivot uint32, region []uint32, id uint32,
	labels []uint32, opts core.Options) (*bitset.Bitset, error) {

	n := g.NumVertices()
	visited := bitset.New(n)
	visited.Set(int(pivot))
	funcs := core.EdgeFuncs{
		// The one update serves both directions: the set is atomic anyway.
		UpdateAtomic: func(_, d uint32, _ int32) bool {
			return visited.SetAtomic(int(d))
		},
		// Read while other workers set bits of the same word.
		Cond: func(d uint32) bool {
			return labels[d] == core.None && region[d] == id && !visited.GetAtomic(int(d))
		},
	}
	frontier := core.NewSingle(n, pivot)
	for !frontier.IsEmpty() {
		next, err := core.EdgeMap(ctx, g, frontier, funcs, opts)
		if err != nil {
			return visited, err
		}
		frontier = next
	}
	return visited, nil
}
