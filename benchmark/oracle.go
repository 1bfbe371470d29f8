package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

// compOracle answers "how large is v's component" and "are a and b
// connected" in O(1), from one sequential union-find pass. It is what
// lets every reply of a serving workload be checked without a second
// traversal: bfs.visited must equal the source's component size, reach
// must agree with same(), a landmark distance must be finite exactly when
// same() holds.
type compOracle struct {
	labels []uint32 // seq.ConnectedComponents: min vertex ID of the component
	sizes  []int32  // sizes[label] = vertices in that component
	count  int      // number of components
	giant  []uint32 // the vertices of the largest component
}

func newCompOracle(g graph.View) *compOracle {
	o := &compOracle{labels: seq.ConnectedComponents(g)}
	o.sizes = make([]int32, len(o.labels))
	for _, l := range o.labels {
		if o.sizes[l] == 0 {
			o.count++
		}
		o.sizes[l]++
	}
	var giantLabel uint32
	for l, s := range o.sizes {
		if s > o.sizes[giantLabel] {
			giantLabel = uint32(l)
		}
	}
	for v, l := range o.labels {
		if l == giantLabel {
			o.giant = append(o.giant, uint32(v))
		}
	}
	return o
}

func (o *compOracle) sizeOf(v uint32) int   { return int(o.sizes[o.labels[v]]) }
func (o *compOracle) same(a, b uint32) bool { return o.labels[a] == o.labels[b] }

// giantPermutation returns the giant component's vertices in a
// seed-determined order: workloads draw their sources from it so a trial
// never starts in an isolated vertex and never repeats one.
func (o *compOracle) giantPermutation(rng *rand.Rand) []uint32 {
	p := append([]uint32(nil), o.giant...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// failures collects check failures: the count decides `failed`, the first
// few messages are kept for the human reader.
type failures struct {
	n     int
	notes []string
}

func (f *failures) addf(format string, args ...any) {
	f.n++
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// deepCheckApps runs each of the six applications once through its typed
// entry point and compares the whole result with internal/seq: BFS
// parents against sequential levels, the component partition and the
// Bellman-Ford distances exactly, BC and PageRank within 1e-9 relative
// L1, and Radii against the sequential eccentricity lower bound of four
// of its own sampled sources. The registry runners the timed trials go
// through return only scalars; this is the pass that looks at every
// vertex. It returns one message per application that disagrees.
func deepCheckApps(ctx context.Context, g graph.View, src uint32, radiiSeed uint64) []string {
	var bad []string
	n := g.NumVertices()
	levels := seq.BFSLevels(g, src)

	if res, err := algo.BFSCtx(ctx, g, src, core.Options{}); err != nil {
		bad = append(bad, fmt.Sprintf("bfs: %v", err))
	} else {
		for v := 0; v < n; v++ {
			p := res.Parents[v]
			ok := true
			switch {
			case levels[v] == -1:
				ok = p == core.None
			case uint32(v) == src:
				ok = p == src
			default:
				ok = p != core.None && levels[p] == levels[v]-1 && hasEdge(g, p, uint32(v))
			}
			if !ok {
				bad = append(bad, fmt.Sprintf("bfs from %d: vertex %d at level %d has parent %d", src, v, levels[v], p))
				break
			}
		}
	}

	if res, err := algo.ConnectedComponentsCtx(ctx, g, core.Options{}); err != nil {
		bad = append(bad, fmt.Sprintf("components: %v", err))
	} else if msg := samePartition(res.Labels, seq.ConnectedComponents(g)); msg != "" {
		bad = append(bad, "components: "+msg)
	}

	if res, err := algo.BellmanFordCtx(ctx, g, src, core.Options{}); err != nil {
		bad = append(bad, fmt.Sprintf("bellman-ford: %v", err))
	} else {
		want, _ := seq.BellmanFord(g, src)
		for v := range want {
			if res.Dist[v] != want[v] {
				bad = append(bad, fmt.Sprintf("bellman-ford from %d: dist[%d] = %d, sequential says %d", src, v, res.Dist[v], want[v]))
				break
			}
		}
	}

	if res, err := algo.BCCtx(ctx, g, src, core.Options{}); err != nil {
		bad = append(bad, fmt.Sprintf("bc: %v", err))
	} else if d := relativeL1(res.Scores, seq.BC(g, src)); d > 1e-9 {
		bad = append(bad, fmt.Sprintf("bc from %d: relative L1 distance to sequential %.3g > 1e-9", src, d))
	}

	if res, err := algo.PageRankCtx(ctx, g, algo.DefaultPageRankOptions()); err != nil {
		bad = append(bad, fmt.Sprintf("pagerank: %v", err))
	} else {
		// Same number of power iterations, tolerance check off: the two
		// then differ only in floating-point summation order.
		o := algo.DefaultPageRankOptions()
		want := seq.PageRank(g, o.Damping, 0, res.Iterations)
		if d := relativeL1(res.Ranks, want); d > 1e-9 {
			bad = append(bad, fmt.Sprintf("pagerank: relative L1 distance to sequential after %d iterations %.3g > 1e-9", res.Iterations, d))
		}
	}

	ro := algo.DefaultRadiiOptions()
	ro.Seed = radiiSeed
	if res, err := algo.RadiiCtx(ctx, g, ro); err != nil {
		bad = append(bad, fmt.Sprintf("radii: %v", err))
	} else {
		k := 4
		if len(res.Sources) < k {
			k = len(res.Sources)
		}
		lower := seq.Eccentricities(g, res.Sources[:k])
		for v := range lower {
			if res.Radii[v] < lower[v] {
				bad = append(bad, fmt.Sprintf("radii: vertex %d estimated %d, below the sequential lower bound %d", v, res.Radii[v], lower[v]))
				break
			}
		}
	}
	return bad
}

func hasEdge(g graph.View, s, d uint32) bool {
	found := false
	g.OutNeighbors(s, func(x uint32, _ int32) bool {
		found = x == d
		return !found
	})
	return found
}

// samePartition reports "" when the two labelings induce the same
// partition of the vertices, whatever the label values are.
func samePartition(a, b []uint32) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d labels, sequential has %d", len(a), len(b))
	}
	ab := map[uint32]uint32{}
	ba := map[uint32]uint32{}
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return fmt.Sprintf("vertex %d joins two sequential components", v)
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return fmt.Sprintf("vertex %d splits a sequential component", v)
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return ""
}

func relativeL1(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, norm float64
	for i := range want {
		diff += math.Abs(got[i] - want[i])
		norm += math.Abs(want[i])
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}

// edgeLedger is the naive reference for serve-mixed's update stream: the
// undirected edges the stream has inserted and not yet deleted, on top of
// an immutable base graph. The stream only ever deletes edges it inserted
// itself and only inserts inside the giant component, so the base graph's
// component structure holds at every version and compOracle stays exact
// while the graph changes under the readers.
type edgeLedger struct {
	base graph.View
	live map[uint64]int // undirected edge -> index in list
	list []uint64       // live edges, for O(1) random deletion
}

func newEdgeLedger(base graph.View) *edgeLedger {
	return &edgeLedger{base: base, live: map[uint64]int{}}
}

func edgeKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// insert adds a fresh edge between two vertices drawn from pool and
// returns it; every returned edge is absent from both the base graph and
// the ledger, so the server must count it as effective.
func (l *edgeLedger) insert(rng *rand.Rand, pool []uint32) (uint32, uint32) {
	for {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		k := edgeKey(a, b)
		if _, dup := l.live[k]; a == b || dup || hasEdge(l.base, a, b) {
			continue
		}
		l.live[k] = len(l.list)
		l.list = append(l.list, k)
		return a, b
	}
}

// remove deletes a random live edge and returns it. A batch builder calls
// remove before insert, so no batch inserts and deletes the same edge.
func (l *edgeLedger) remove(rng *rand.Rand) (uint32, uint32) {
	i := rng.Intn(len(l.list))
	k := l.list[i]
	last := len(l.list) - 1
	l.list[i] = l.list[last]
	l.live[l.list[i]] = i
	l.list = l.list[:last]
	delete(l.live, k)
	return uint32(k >> 32), uint32(k)
}

// directedEdges is the edge count the server must report once every
// acknowledged update is visible (an undirected edge counts twice).
func (l *edgeLedger) directedEdges() int64 {
	return l.base.NumEdges() + 2*int64(len(l.list))
}
