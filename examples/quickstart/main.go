// Quickstart: build a graph, run BFS through the public API, and write a
// custom traversal directly against EdgeMap — the "hello world" of the
// Ligra programming model.
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"

	"ligra"
)

func main() {
	ctx := context.Background()
	// A small power-law graph: 2^14 vertices, ~16 edges per vertex.
	g, err := ligra.RMAT(14, 16, ligra.PBBSRMAT, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ligra.ComputeStats(g))

	// 1. Use a built-in application.
	res, err := ligra.BFS(ctx, g, 0, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BFS: visited %d/%d vertices in %d rounds\n",
		res.Visited, g.NumVertices(), res.Rounds)

	// 2. Write the same BFS by hand against the Ligra interface: a parent
	// array, a CAS-based update, and a condition that prunes visited
	// vertices. EdgeMap picks sparse (push) or dense (pull) per round.
	n := g.NumVertices()
	parents := make([]uint32, n)
	for i := range parents {
		parents[i] = ligra.None
	}
	parents[0] = 0

	funcs := ligra.EdgeFuncs{
		// Dense rounds guarantee one writer per destination.
		Update: func(s, d uint32, _ int32) bool {
			if parents[d] == ligra.None {
				parents[d] = s
				return true
			}
			return false
		},
		// Sparse rounds need the atomic claim.
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return atomic.CompareAndSwapUint32(&parents[d], ligra.None, s)
		},
		Cond: func(d uint32) bool { return parents[d] == ligra.None },
	}

	frontier := ligra.NewSingle(n, 0)
	trace := &ligra.Trace{}
	rounds := 0
	for !frontier.IsEmpty() {
		frontier, err = ligra.EdgeMap(ctx, g, frontier, funcs, ligra.Options{Trace: trace})
		if err != nil {
			log.Fatal(err)
		}
		rounds++
	}
	fmt.Printf("hand-written BFS finished in %d rounds; edgeMap chose:\n", rounds)
	for _, e := range trace.Entries {
		fmt.Printf("  round %d: frontier=%5d outdeg=%7d -> %-13s -> output=%d\n",
			e.Round, e.FrontierSize, e.OutDegrees, e.Mode, e.OutputSize)
	}

	// The two traversals agree on reachability.
	agree := 0
	for v := 0; v < n; v++ {
		if (parents[v] == ligra.None) == (res.Parents[v] == ligra.None) {
			agree++
		}
	}
	fmt.Printf("reachability agreement: %d/%d\n", agree, n)
}
