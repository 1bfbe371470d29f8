// Social-network analysis: the workload class that motivates the paper's
// introduction. On a simulated follower graph (heavy-tailed degrees, low
// diameter) this example runs the standard analysis pipeline —
// connectivity, PageRank influence ranking, core decomposition, local
// clustering via triangle counting, and seed-based betweenness — entirely
// through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"ligra"
)

func main() {
	// Twitter-like: Graph500 R-MAT parameters give the heavy degree skew
	// of follower graphs.
	ctx := context.Background()
	g, err := ligra.RMAT(15, 20, ligra.Graph500RMAT, 2024)
	if err != nil {
		log.Fatal(err)
	}
	stats := ligra.ComputeStats(g)
	fmt.Println("follower graph:", stats)

	// --- Connectivity: how much of the network is one community? ---
	cc, err := ligra.ConnectedComponents(ctx, g, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[uint32]int{}
	for _, l := range cc.Labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("components: %d; largest holds %.1f%% of vertices (found in %d rounds)\n",
		cc.Components, 100*float64(largest)/float64(g.NumVertices()), cc.Rounds)

	// --- Influence: PageRank to convergence. ---
	pr, err := ligra.PageRank(ctx, g, ligra.PageRankOptions{
		Damping: 0.85, Epsilon: 1e-8, MaxIterations: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	type ranked struct {
		v    uint32
		rank float64
	}
	top := make([]ranked, 0, g.NumVertices())
	for v, r := range pr.Ranks {
		top = append(top, ranked{uint32(v), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Printf("PageRank converged in %d iterations; top influencers:\n", pr.Iterations)
	for i := 0; i < 5; i++ {
		fmt.Printf("  #%d vertex %6d  rank %.5f  degree %d\n",
			i+1, top[i].v, top[i].rank, g.OutDegree(top[i].v))
	}

	// The approximate frontier-based variant gets close at a fraction of
	// the touched edges.
	prd, err := ligra.PageRankDelta(ctx, g, ligra.PageRankOptions{
		Damping: 0.85, Epsilon: 1e-8, MaxIterations: 100,
	}, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PageRank-Delta: %d iterations; top-1 agrees: %v\n",
		prd.Iterations, maxIndex(prd.Ranks) == int(top[0].v))

	// --- Engagement core: k-core decomposition. ---
	kc, err := ligra.KCore(ctx, g, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	inMax := 0
	for _, c := range kc.Coreness {
		if c == kc.MaxCore {
			inMax++
		}
	}
	fmt.Printf("degeneracy %d; %d vertices in the innermost core\n", kc.MaxCore, inMax)

	// --- Cohesion: triangles (3x the number of closed wedges). ---
	tris, err := ligra.TriangleCount(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %d\n", tris)

	// --- Brokerage: betweenness contribution from the top influencer. ---
	bc, err := ligra.BC(ctx, g, top[0].v, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BC from vertex %d: max dependency %.1f (graph depth %d)\n",
		top[0].v, maxVal(bc.Scores), bc.Rounds)

	// --- Community around a user: local clustering (APPR + sweep cut)
	// touches only the seed's neighborhood, never the whole graph. ---
	lc, err := ligra.LocalCluster(ctx, g, top[0].v, 0.15, 1e-5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local community around vertex %d: %d members, conductance %.4f\n",
		top[0].v, len(lc.Cluster), lc.Conductance)
}

func maxIndex(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func maxVal(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}
