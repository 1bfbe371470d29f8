package core

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"ligra/internal/graph"
)

// randomGraph builds a random directed graph from a seeded RNG.
func randomGraph(t *testing.T, rng *rand.Rand, n, m int, symmetric bool) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    uint32(rng.Intn(n)),
			Dst:    uint32(rng.Intn(n)),
			Weight: int32(rng.Intn(100) + 1),
		}
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{
		Symmetrize:       symmetric,
		RemoveSelfLoops:  true,
		RemoveDuplicates: true,
		Weighted:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomSubset builds a random frontier.
func randomSubset(rng *rand.Rand, n int) *VertexSubset {
	var ids []uint32
	for v := 0; v < n; v++ {
		if rng.Intn(4) == 0 {
			ids = append(ids, uint32(v))
		}
	}
	return NewSparse(n, ids)
}

// applyOracle computes the expected edgeMap semantics sequentially: the
// set of destinations d with an edge (s, d), s in u, cond(d), dedup'd.
func applyOracle(g *graph.Graph, u *VertexSubset, cond func(uint32) bool) []uint32 {
	seen := map[uint32]bool{}
	u.ForEachSeq(func(s uint32) {
		ts, _ := g.OutRow(s, nil)
		for _, d := range ts {
			if cond == nil || cond(d) {
				seen[d] = true
			}
		}
	})
	out := make([]uint32, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestEdgeMapModesAgreeOnRandomGraphs is the central property test: for
// random graphs, random frontiers, and a random Cond, the sparse, dense,
// and dense-forward traversals must produce exactly the destination set
// computed by a sequential oracle.
func TestEdgeMapModesAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		m := rng.Intn(4 * n)
		symmetric := rng.Intn(2) == 0
		g := randomGraph(t, rng, n, m, symmetric)
		u := randomSubset(rng, n)

		// Random Cond: exclude a random subset of destinations.
		blocked := make([]bool, n)
		for v := range blocked {
			blocked[v] = rng.Intn(5) == 0
		}
		cond := func(d uint32) bool { return !blocked[d] }

		want := applyOracle(g, u, cond)

		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"sparse", Options{Mode: ForceSparse, RemoveDuplicates: true}},
			{"dense", Options{Mode: ForceDense}},
			{"dense-forward", Options{Mode: ForceDense, DenseForward: true}},
			{"auto", Options{RemoveDuplicates: true}},
		} {
			f := EdgeFuncs{
				UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
				Cond:         cond,
			}
			out := edgeMap(g, u.Clone(), f, tc.opts)
			got := append([]uint32(nil), sparseIDs(out)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: got %d vertices, want %d\ngot  %v\nwant %v",
					trial, tc.name, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: output differs at %d: %v vs %v",
						trial, tc.name, i, got, want)
				}
			}
			if out.Size() != len(want) {
				t.Fatalf("trial %d %s: Size() = %d, want %d", trial, tc.name, out.Size(), len(want))
			}
		}
	}
}

// TestEdgeMapEdgeCountConsistency: with no Cond and an always-false
// update, every frontier out-edge must be applied exactly once in sparse
// mode and dense-forward mode (dense pull may apply edges in any order
// but also exactly once given Cond never flips).
func TestEdgeMapEdgeCountConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(100)
		g := randomGraph(t, rng, n, rng.Intn(5*n), rng.Intn(2) == 0)
		u := randomSubset(rng, n)
		var wantEdges int64
		u.ForEachSeq(func(s uint32) { wantEdges += int64(g.OutDegree(s)) })

		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"sparse", Options{Mode: ForceSparse}},
			{"dense", Options{Mode: ForceDense}},
			{"dense-forward", Options{Mode: ForceDense, DenseForward: true}},
		} {
			var applied atomic.Int64
			f := EdgeFuncs{
				UpdateAtomic: func(_, _ uint32, _ int32) bool {
					applied.Add(1)
					return false
				},
			}
			out := edgeMap(g, u.Clone(), f, tc.opts)
			if applied.Load() != wantEdges {
				t.Fatalf("trial %d %s: applied %d edges, want %d",
					trial, tc.name, applied.Load(), wantEdges)
			}
			if !out.IsEmpty() {
				t.Fatalf("trial %d %s: always-false update produced output", trial, tc.name)
			}
		}
	}
}

// TestEdgeMapWeightsAgreeAcrossModes: the weight passed to the update
// function must be the edge's weight in every mode (in particular the
// dense pull must deliver the same weight for (s, d) as the sparse push).
func TestEdgeMapWeightsAgreeAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(t, rng, n, rng.Intn(3*n), false)
		u := NewAll(n)

		collect := func(opts Options) map[[2]uint32]int64 {
			sums := make([]int64, n*n) // sum of weights per (s,d) cell
			f := EdgeFuncs{
				UpdateAtomic: func(s, d uint32, w int32) bool {
					atomic.AddInt64(&sums[int(s)*n+int(d)], int64(w))
					return false
				},
			}
			edgeMap(g, u.Clone(), f, opts)
			out := map[[2]uint32]int64{}
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if sums[s*n+d] != 0 {
						out[[2]uint32{uint32(s), uint32(d)}] = sums[s*n+d]
					}
				}
			}
			return out
		}
		sparse := collect(Options{Mode: ForceSparse})
		dense := collect(Options{Mode: ForceDense})
		fwd := collect(Options{Mode: ForceDense, DenseForward: true})
		if len(sparse) != len(dense) || len(sparse) != len(fwd) {
			t.Fatalf("trial %d: edge sets differ in size", trial)
		}
		for k, v := range sparse {
			if dense[k] != v || fwd[k] != v {
				t.Fatalf("trial %d: weight mismatch at %v: sparse %d dense %d fwd %d",
					trial, k, v, dense[k], fwd[k])
			}
		}
	}
}

// TestRemoveDuplicatesScratchReuse: every destination is reached from
// several sources and the update always succeeds, so a sparse round keeps
// each destination once only through RemoveDuplicates' bit claims; the
// rounds reuse pooled scratch, which must carry no stale claim or output
// from one round into the next, and the claimed bitset must be the
// output's dense form.
func TestRemoveDuplicatesScratchReuse(t *testing.T) {
	const n, srcs, dsts = 1000, 500, 250
	var edges []graph.Edge
	for v := 0; v < srcs; v++ {
		for k := 0; k < 3; k++ {
			edges = append(edges, graph.Edge{Src: uint32(v), Dst: uint32(srcs + (v+k)%dsts)})
		}
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, srcs)
	for v := range ids {
		ids[v] = uint32(v)
	}
	f := EdgeFuncs{UpdateAtomic: func(_, _ uint32, _ int32) bool { return true }}
	for round := 0; round < 10; round++ {
		out := edgeMap(g, NewSparse(n, append([]uint32(nil), ids...)), f, Options{Mode: ForceSparse, RemoveDuplicates: true})
		got := sparseIDs(out)
		if len(got) != dsts || out.Size() != dsts {
			t.Fatalf("round %d: dedup kept %d (size %d), want %d", round, len(got), out.Size(), dsts)
		}
		seen := map[uint32]bool{}
		for _, v := range got {
			if seen[v] || v < srcs {
				t.Fatalf("round %d: duplicate or stray %d survived", round, v)
			}
			seen[v] = true
		}
		dense := must(out.ToDense(bg))
		if dense.Count() != dsts {
			t.Fatalf("round %d: dense form holds %d vertices, want %d", round, dense.Count(), dsts)
		}
		for _, v := range got {
			if !dense.Get(int(v)) {
				t.Fatalf("round %d: %d missing from the dense form", round, v)
			}
		}
	}
}

// TestEdgeMapThresholdSweepAgrees: the oracle result must be invariant
// under the switch threshold — whatever mix of sparse and dense rounds a
// threshold induces, the output subset is the same. Sweeps thresholds from
// "always dense" (1) through the paper's default to "always sparse" (huge).
func TestEdgeMapThresholdSweepAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		g := randomGraph(t, rng, n, rng.Intn(4*n), rng.Intn(2) == 0)
		u := randomSubset(rng, n)
		blocked := make([]bool, n)
		for v := range blocked {
			blocked[v] = rng.Intn(5) == 0
		}
		cond := func(d uint32) bool { return !blocked[d] }
		want := applyOracle(g, u, cond)

		thresholds := []int64{1, g.NumEdges() / DefaultThresholdDenominator,
			int64(1 + rng.Intn(n*4)), int64(1) << 40}
		for _, th := range thresholds {
			f := EdgeFuncs{
				UpdateAtomic: func(_, _ uint32, _ int32) bool { return true },
				Cond:         cond,
			}
			out := edgeMap(g, u.Clone(), f, Options{Threshold: th, RemoveDuplicates: true})
			got := append([]uint32(nil), sparseIDs(out)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("trial %d threshold %d: got %d vertices, want %d",
					trial, th, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d threshold %d: output differs at %d", trial, th, i)
				}
			}
		}
	}
}

// TestEdgeMapDenseEarlyExit: with a claim-once update (BFS-style CAS) the
// DenseEarlyExit option must not change the output subset — it only skips
// in-edges that could not produce a second claim — and every claimed
// parent must be a frontier member.
func TestEdgeMapDenseEarlyExitRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(86420))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		g := randomGraph(t, rng, n, rng.Intn(4*n), rng.Intn(2) == 0)
		u := randomSubset(rng, n)
		inFrontier := make([]bool, n)
		u.ForEachSeq(func(v uint32) { inFrontier[v] = true })

		claimed := make([]uint32, n)
		for i := range claimed {
			claimed[i] = None
		}
		cond := func(d uint32) bool { return atomic.LoadUint32(&claimed[d]) == None }
		want := applyOracle(g, u, cond)

		f := EdgeFuncs{
			Update: func(s, d uint32, _ int32) bool {
				return atomic.CompareAndSwapUint32(&claimed[d], None, s)
			},
			UpdateAtomic: func(s, d uint32, _ int32) bool {
				return atomic.CompareAndSwapUint32(&claimed[d], None, s)
			},
			Cond: cond,
		}
		out := edgeMap(g, u.Clone(), f, Options{Mode: ForceDense, DenseEarlyExit: true})
		got := append([]uint32(nil), sparseIDs(out)...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d vertices, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: output differs at index %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
		for _, d := range got {
			if s := claimed[d]; s == None || !inFrontier[s] {
				t.Fatalf("trial %d: vertex %d claimed by non-frontier parent %d", trial, d, s)
			}
		}
	}
}
