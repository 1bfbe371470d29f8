// Web-graph analysis on a *directed* graph: the pipeline a search-engine
// or crawl-analysis system runs — strongly connected components (the
// bow-tie structure), PageRank over links, and reachability — exercising
// the framework's directed-graph support (transpose-based dense pull,
// forward-backward SCC).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"ligra"
)

func main() {
	// Directed power-law graph: hyperlink-like structure.
	ctx := context.Background()
	g, err := ligra.RMATDirected(15, 12, ligra.Graph500RMAT, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("web graph:", ligra.ComputeStats(g))

	// --- Bow-tie: SCC structure. ---
	scc, err := ligra.SCC(ctx, g, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[uint32]int{}
	for _, l := range scc.Labels {
		sizes[l]++
	}
	core, coreLabel := 0, uint32(0)
	for l, s := range sizes {
		if s > core {
			core, coreLabel = s, l
		}
	}
	fmt.Printf("SCCs: %d; giant core holds %d vertices (%.1f%%)\n",
		scc.Components, core, 100*float64(core)/float64(g.NumVertices()))

	// --- IN / OUT sets relative to the core (the bow-tie wings):
	// vertices reaching the core vs. reachable from it. ---
	coreVertex := coreLabel // labels are member vertices
	out, err := ligra.BFS(ctx, g, coreVertex, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// For the IN side, BFS over the transpose by loading the reversed
	// graph: Transpose is free for CSR graphs.
	in, err := ligra.BFS(ctx, g.Transpose(), coreVertex, ligra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OUT(core): %d vertices; IN(core): %d vertices\n", out.Visited, in.Visited)

	// --- Link-based ranking. ---
	pr, err := ligra.PageRank(ctx, g, ligra.PageRankOptions{Damping: 0.85, Epsilon: 1e-9, MaxIterations: 100})
	if err != nil {
		log.Fatal(err)
	}
	type kv struct {
		v uint32
		r float64
	}
	rank := make([]kv, len(pr.Ranks))
	for v, r := range pr.Ranks {
		rank[v] = kv{uint32(v), r}
	}
	sort.Slice(rank, func(i, j int) bool { return rank[i].r > rank[j].r })
	fmt.Printf("PageRank (%d iters); top pages by rank vs in-degree:\n", pr.Iterations)
	for i := 0; i < 5; i++ {
		fmt.Printf("  vertex %6d  rank %.5f  in-degree %d\n",
			rank[i].v, rank[i].r, g.InDegree(rank[i].v))
	}

	// --- Sanity: rank mass concentrates on the giant core + OUT. ---
	var coreMass float64
	for v, l := range scc.Labels {
		if l == coreLabel {
			coreMass += pr.Ranks[v]
		}
	}
	fmt.Printf("rank mass inside the giant SCC: %.1f%%\n", 100*coreMass)
}
