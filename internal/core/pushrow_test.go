package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// TestPushRowOneCallPerSource: over a raw CSR, a sparse round and a
// forced forward round call the PushRow kernel exactly once per frontier
// member, with the member's out-row in place in the CSR's arrays, and the
// round's output is what the kernels appended — in frontier-edge order
// for a sparse round, each destination once (at its first appearance)
// under RemoveDuplicates, nothing under NoOutput.
func TestPushRowOneCallPerSource(t *testing.T) {
	for _, n := range []int{1000, 50} {
		g, err := gen.ErdosRenyi(n, 4*n, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		g = g.AddWeights(graph.HashWeight(100))
		offs, edges, wts := g.Offsets(), g.Edges(), g.Weights()
		rng := rand.New(rand.NewSource(int64(n)))
		var members []uint32
		for v := range n {
			if rng.Intn(3) == 0 {
				members = append(members, uint32(v))
			}
		}
		for _, procs := range []int{1, 4} {
			ctx := parallel.WithProcs(context.Background(), procs)
			for _, mode := range []core.Mode{core.Sparse, core.Forward} {
				for _, opts := range []core.Options{{}, {RemoveDuplicates: true}, {NoOutput: true}} {
					opts.Mode = mode
					name := fmt.Sprintf("n=%d/procs=%d/%s/dedup=%v/nooutput=%v", n, procs, mode, opts.RemoveDuplicates, opts.NoOutput)
					calls := make([]atomic.Int32, n)
					appended := make([][]uint32, n)
					f := core.EdgeFuncs{
						PushRow: func(s uint32, dsts []uint32, ws []int32, out []uint32) []uint32 {
							if calls[s].Add(1) != 1 {
								return out // counted; the check below reports it
							}
							if len(dsts) > 0 && (&dsts[0] != &edges[offs[s]] || &ws[0] != &wts[offs[s]]) {
								t.Errorf("%s: source %d's row is not the CSR's own", name, s)
							}
							if len(dsts) != int(offs[s+1]-offs[s]) || len(ws) != len(dsts) {
								t.Errorf("%s: source %d got %d edges, %d weights; degree %d", name, s, len(dsts), len(ws), offs[s+1]-offs[s])
							}
							start := len(out)
							for j, d := range dsts {
								if (s+d+uint32(ws[j]))%3 == 0 {
									out = append(out, d)
								}
							}
							appended[s] = slices.Clone(out[start:])
							return out
						},
						Update: func(uint32, uint32, int32) bool { return false },
					}
					out, err := core.EdgeMap(ctx, g, core.NewSparse(n, slices.Clone(members)), f, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var want []uint32
					for v := range n {
						in := slices.Contains(members, uint32(v))
						if got := calls[v].Load(); (in && got != 1) || (!in && got != 0) {
							t.Fatalf("%s: vertex %d (member %v): %d kernel calls", name, v, in, got)
						}
					}
					for _, s := range members {
						want = append(want, appended[s]...)
					}
					got, err := out.ToSparse(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if opts.RemoveDuplicates && mode == core.Sparse && !opts.NoOutput {
						// Concurrent chunks race for a destination's claim,
						// so beyond one worker the occurrence kept is any
						// one of its appearances; on one it is the first.
						if !isSubsequence(got, want) {
							t.Fatalf("%s: output %v is not in frontier-edge order %v", name, got, want)
						}
						seen := make([]bool, n)
						want = slices.DeleteFunc(want, func(d uint32) bool {
							dup := seen[d]
							seen[d] = true
							return dup
						})
						if parallel.CtxProcs(ctx) > 1 {
							got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
						}
					}
					switch {
					case opts.NoOutput:
						if len(got) != 0 {
							t.Fatalf("%s: %d output vertices under NoOutput", name, len(got))
						}
					case mode == core.Sparse:
						if !slices.Equal(got, want) {
							t.Fatalf("%s: output %v, want %v", name, got, want)
						}
					default:
						// A forward round's output is a bitset: the set, in ID order.
						slices.Sort(want)
						if want = slices.Compact(want); !slices.Equal(got, want) {
							t.Fatalf("%s: output %v, want %v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// isSubsequence reports whether sub is seq with some elements left out.
func isSubsequence(sub, seq []uint32) bool {
	for _, x := range seq {
		if len(sub) > 0 && sub[0] == x {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}
