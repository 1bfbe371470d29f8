package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// csrArrays is one direction of a graph's CSR.
type csrArrays struct {
	offsets []int64
	targets []uint32
	weights []int32
}

func (a csrArrays) equal(b csrArrays) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.targets, b.targets) &&
		slices.Equal(a.weights, b.weights) && (a.weights == nil) == (b.weights == nil)
}

// sortedReference builds what FromEdges must return the simple way: a
// stable comparison sort of the kept (and mirrored) edges by (src, dst,
// weight), the first of each (src, dst) run kept, and the in-arrays from
// the same edges sorted by (dst, src, weight).
func sortedReference(n int, edges []Edge, opts BuildOptions) (out, in csrArrays, m int64) {
	var work []Edge
	for _, e := range edges {
		if opts.RemoveSelfLoops && e.Src == e.Dst {
			continue
		}
		work = append(work, e)
		if opts.Symmetrize {
			work = append(work, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
		}
	}
	sort.SliceStable(work, func(i, j int) bool {
		a, b := work[i], work[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return opts.Weighted && a.Weight < b.Weight
	})
	if opts.RemoveDuplicates {
		kept := work[:0]
		for _, e := range work {
			if len(kept) == 0 || kept[len(kept)-1].Src != e.Src || kept[len(kept)-1].Dst != e.Dst {
				kept = append(kept, e)
			}
		}
		work = kept
	}
	csr := func(key, val func(Edge) uint32) csrArrays {
		offsets := make([]int64, n+1)
		targets := make([]uint32, 0, len(work))
		var weights []int32
		if opts.Weighted {
			weights = make([]int32, 0, len(work))
		}
		for _, e := range work {
			offsets[key(e)+1]++
			targets = append(targets, val(e))
			if opts.Weighted {
				weights = append(weights, e.Weight)
			}
		}
		for v := 0; v < n; v++ {
			offsets[v+1] += offsets[v]
		}
		return csrArrays{offsets, targets, weights}
	}
	src := func(e Edge) uint32 { return e.Src }
	dst := func(e Edge) uint32 { return e.Dst }
	out = csr(src, dst)
	sort.SliceStable(work, func(i, j int) bool {
		a, b := work[i], work[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return opts.Weighted && a.Weight < b.Weight
	})
	in = csr(dst, src)
	return out, in, int64(len(work))
}

// referenceInput draws an unsorted edge list over n vertices with
// self-loops, (src, dst) pairs repeated with different and negative
// weights (the int32 extremes among them), and, from n = 17 on, vertices
// no edge touches.
func referenceInput(n int, rng *rand.Rand) []Edge {
	span := n
	if n > 2 {
		span = n - n/4 // the top quarter stays isolated
	}
	var edges []Edge
	for i := 0; i < 4*n+8; i++ {
		e := Edge{Src: uint32(rng.Intn(span)), Dst: uint32(rng.Intn(span)), Weight: int32(rng.Intn(201) - 100)}
		switch rng.Intn(8) {
		case 0:
			e.Dst = e.Src
		case 1:
			if len(edges) > 0 {
				e.Src, e.Dst = edges[rng.Intn(len(edges))].Src, edges[rng.Intn(len(edges))].Dst
			}
		case 2:
			if len(edges) > 0 {
				p := edges[rng.Intn(len(edges))]
				e.Src, e.Dst = p.Src, p.Dst
			}
		case 3:
			e.Weight = []int32{math.MinInt32, math.MaxInt32, -1, 0}[rng.Intn(4)]
		}
		edges = append(edges, e)
	}
	return edges
}

// TestFromEdgesMatchesSortedReference holds FromEdges to sortedReference
// under every combination of the four build options, at one worker and at
// four, and checks that it leaves its input as it found it.
func TestFromEdgesMatchesSortedReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 17, 1000} {
		edges := referenceInput(n, rng)
		input := slices.Clone(edges)
		for mask := 0; mask < 16; mask++ {
			opts := BuildOptions{
				Symmetrize:       mask&1 != 0,
				RemoveSelfLoops:  mask&2 != 0,
				RemoveDuplicates: mask&4 != 0,
				Weighted:         mask&8 != 0,
			}
			wantOut, wantIn, wantM := sortedReference(n, edges, opts)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("n=%d %+v procs=%d", n, opts, procs)
				g, err := FromEdges(n, edges, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(edges, input) {
					t.Fatalf("%s: FromEdges modified its input", name)
				}
				if g.NumEdges() != wantM || g.Symmetric() != opts.Symmetrize || g.Weighted() != opts.Weighted {
					t.Fatalf("%s: m=%d symmetric=%v weighted=%v, want %d %v %v", name,
						g.NumEdges(), g.Symmetric(), g.Weighted(), wantM, opts.Symmetrize, opts.Weighted)
				}
				for _, side := range []struct {
					dir       string
					got, want csrArrays
				}{
					{"out", csrArrays{g.Offsets(), g.Edges(), g.Weights()}, wantOut},
					{"in", csrArrays{g.InOffsets(), g.InEdges(), g.InWeights()}, wantIn},
				} {
					if !side.got.equal(side.want) {
						t.Fatalf("%s: %s-arrays\n got %+v\nwant %+v", name, side.dir, side.got, side.want)
					}
				}
			}
		}
	}
}
