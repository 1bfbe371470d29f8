// Road-network routing: shortest paths on a high-diameter weighted mesh —
// the other end of the workload spectrum from social networks, where
// frontiers stay small and edgeMap should stay sparse nearly throughout.
package main

import (
	"context"
	"fmt"
	"log"

	"ligra"
)

func main() {
	// A 3-D torus mesh stands in for a road network: bounded degree, high
	// diameter. Deterministic hash weights in [1, 100] model travel times.
	ctx := context.Background()
	g, err := ligra.Grid3D(32) // 32^3 = 32768 intersections
	if err != nil {
		log.Fatal(err)
	}
	wg := g.AddWeights(ligra.HashWeight(100))
	fmt.Println("road network:", ligra.ComputeStats(wg))

	src := uint32(0)

	// Unweighted hop distance (BFS) vs weighted travel time (Bellman-Ford).
	hops, err := ligra.BFSLevels(ctx, wg, src, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tr := &ligra.Trace{}
	sp, err := ligra.BellmanFord(ctx, wg, src, ligra.Options{Trace: tr})
	if err != nil {
		log.Fatal(err)
	}
	if sp.NegativeCycle {
		log.Fatal("unexpected negative cycle")
	}

	// Sparse share of rounds: on a mesh the frontier is a wavefront, so
	// most rounds should run sparse.
	denseRounds := 0
	for _, e := range tr.Entries {
		if e.Dense {
			denseRounds++
		}
	}
	fmt.Printf("Bellman-Ford: %d rounds, %d ran dense (%0.f%%)\n",
		sp.Rounds, denseRounds, 100*float64(denseRounds)/float64(len(tr.Entries)))

	// Farthest destinations by hops and by travel time differ.
	farHop, farTime := 0, 0
	for v := range hops {
		if hops[v] > hops[farHop] {
			farHop = v
		}
		if sp.Dist[v] < ligra.InfDist && sp.Dist[v] > sp.Dist[farTime] {
			farTime = v
		}
	}
	fmt.Printf("farthest by hops: vertex %d (%d hops, travel time %d)\n",
		farHop, hops[farHop], sp.Dist[farHop])
	fmt.Printf("farthest by time: vertex %d (%d hops, travel time %d)\n",
		farTime, hops[farTime], sp.Dist[farTime])

	// Estimated network diameter via the radii application.
	radii, err := ligra.Radii(ctx, wg, ligra.DefaultRadiiOptions())
	if err != nil {
		log.Fatal(err)
	}
	maxR := int32(0)
	for _, r := range radii.Radii {
		if r > maxR {
			maxR = r
		}
	}
	fmt.Printf("estimated diameter (lower bound from %d sampled BFS): %d\n",
		len(radii.Sources), maxR)

	// Reconstruct one shortest route greedily: walk upstream from the
	// farthest vertex, always stepping to a predecessor on a tight edge.
	path := []uint32{uint32(farTime)}
	cur := uint32(farTime)
	var row ligra.Row
	for cur != src && len(path) < 10000 {
		next := cur
		srcs, ws := wg.InRow(cur, &row, wg.InDegree(cur))
		for i, s := range srcs {
			if sp.Dist[s]+int64(ws[i]) == sp.Dist[cur] {
				next = s
				break
			}
		}
		if next == cur {
			break
		}
		cur = next
		path = append(path, cur)
	}
	fmt.Printf("one optimal route uses %d road segments (cost %d)\n",
		len(path)-1, sp.Dist[farTime])
}
