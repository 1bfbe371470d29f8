package algo_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
)

// drainShift gives the tests' graphs many drain blocks: 64 vertices each.
const drainShift = 6

// drainGraphs are the drain tests' unweighted inputs, each spanning many
// blocks: a torus whose blocks hold whole planes, an rMat graph whose
// improvements mostly leave their block (the gate's case), a
// disconnected one and a directed one.
func drainGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := gen.Grid3D(12)
	add("grid", g, err)
	g, err = gen.RMAT(10, 8, gen.PBBSRMAT, 1)
	add("rmat", g, err)
	g, err = gen.ErdosRenyi(600, 520, 3)
	add("disconnected", g, err)
	g, err = gen.RMATDirected(9, 6, gen.PBBSRMAT, 4)
	add("directed", g, err)
	return gs
}

// TestBellmanFordDrainMatchesDijkstra: with drain blocks of 64 vertices,
// Bellman-Ford's distances equal Dijkstra's on every representation, in
// every mode, on one worker and on four, unweighted and under weights of
// 1, up to 100 and up to 1<<20 (which the bucket queue must absorb by
// widening its keys, not by looping its ring).
func TestBellmanFordDrainMatchesDijkstra(t *testing.T) {
	modes := rowModes()
	for gname, base := range drainGraphs(t) {
		for _, maxW := range []int32{0, 1, 100, 1 << 20} {
			g := base
			if maxW > 0 {
				g = base.AddWeights(graph.HashWeight(maxW))
			}
			const src = 1
			want := seq.Dijkstra(g, src)
			for vname, view := range rowViews(t, g) {
				for mname, opts := range modes {
					name := fmt.Sprintf("%s/w%d/%s/%s", gname, maxW, vname, mname)
					res, err := algo.BellmanFordBlocks(nil, view, src, opts, drainShift)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.NegativeCycle {
						t.Fatalf("%s: spurious negative cycle", name)
					}
					for v, w := range want {
						if got := res.Dist[v]; got != w && !(got >= algo.InfDist && w >= algo.InfDist) {
							t.Fatalf("%s: dist[%d] = %d, Dijkstra %d", name, v, got, w)
						}
					}
				}
			}
		}
	}
}

// TestBellmanFordDrainSavesRounds: on a side-16 torus cut into blocks of
// four planes, the shape of the real blocks on a side-64 one, push rounds
// followed by the drain take under a third of the rounds of pull rounds,
// which have no drain.
func TestBellmanFordDrainSavesRounds(t *testing.T) {
	grid, err := gen.Grid3D(16)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.AddWeights(graph.HashWeight(100))
	const fourPlanes = 10
	rounds := func(mode core.Mode) int {
		res, err := algo.BellmanFordBlocks(nil, g, 0, core.Options{Mode: mode, Procs: 1}, fourPlanes)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	pull := rounds(core.Pull)
	for _, mode := range []core.Mode{core.Auto, core.Sparse, core.Forward} {
		if r := rounds(mode); r*3 > pull {
			t.Errorf("%v: %d rounds against %d pull rounds", mode, r, pull)
		} else {
			t.Logf("%v: %d rounds against %d pull rounds", mode, r, pull)
		}
	}
}

// negativeDAG is a 512-vertex DAG over 8 drain blocks: v -> v+1, v+8 and
// v+64, weights in [-20, 79]. cycle adds a negative cycle 1 -> 2 -> 1
// inside block 0 and one that spans blocks, 300 -> 301 -> 10 -> ... -> 300.
func negativeDAG(t *testing.T, cycle bool) *graph.Graph {
	t.Helper()
	const n = 512
	w := graph.HashWeight(100)
	var edges []graph.Edge
	for v := uint32(0); v < n; v++ {
		for _, step := range []uint32{1, 8, 64} {
			if d := v + step; d < n {
				edges = append(edges, graph.Edge{Src: v, Dst: d, Weight: w(v, d, 0) - 21})
			}
		}
	}
	if cycle {
		edges = append(edges,
			graph.Edge{Src: 2, Dst: 1, Weight: -100},
			graph.Edge{Src: 301, Dst: 10, Weight: -100000})
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBellmanFordDrainNegativeWeights: negative weights turn the drain
// off, so distances still equal the oracle's on a DAG that spans blocks,
// and a negative cycle, inside a block or across them, is still flagged
// by the n-round rule instead of looping a block's queue.
func TestBellmanFordDrainNegativeWeights(t *testing.T) {
	for _, cycle := range []bool{false, true} {
		g := negativeDAG(t, cycle)
		want, wantNeg := seq.BellmanFord(g, 0)
		if wantNeg != cycle {
			t.Fatalf("cycle=%v: oracle says negative cycle %v", cycle, wantNeg)
		}
		for mname, opts := range rowModes() {
			name := fmt.Sprintf("cycle=%v/%s", cycle, mname)
			res, err := algo.BellmanFordBlocks(nil, g, 0, opts, drainShift)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.NegativeCycle != cycle {
				t.Fatalf("%s: NegativeCycle = %v", name, res.NegativeCycle)
			}
			if cycle {
				continue
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s: dist[%d] = %d, oracle %d", name, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

// drainCancelCtx is a ctx that cancels itself at the k-th cancellation
// check the drain makes between its blocks (the checks made from inside
// the drain's call frame, on the calling goroutine).
type drainCancelCtx struct {
	context.Context
	left  atomic.Int64
	fired atomic.Bool
	done  chan struct{}
	once  sync.Once
}

func newDrainCancelCtx(k int64) *drainCancelCtx {
	c := &drainCancelCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(k)
	return c
}

func (c *drainCancelCtx) Done() <-chan struct{} { return c.done }

func (c *drainCancelCtx) Err() error {
	if !c.fired.Load() && inDrain() && c.left.Add(-1) < 0 {
		c.fired.Store(true)
		c.once.Do(func() { close(c.done) })
	}
	if c.fired.Load() {
		return context.Canceled
	}
	return nil
}

// inDrain reports whether the caller runs inside the drain's loop.
func inDrain() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "(*drain).run") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestBellmanFordDrainCancel: a cancellation observed between two of the
// drain's blocks returns a *RoundError wrapping it, with every distance
// an upper bound on the true one.
func TestBellmanFordDrainCancel(t *testing.T) {
	g := drainGraphs(t)["grid"].AddWeights(graph.HashWeight(100))
	want := seq.Dijkstra(g, 0)
	partial := 0
	for _, procs := range []int{1, 4} {
		for k := int64(0); k < 40; k += 3 {
			ctx := newDrainCancelCtx(k)
			res, err := algo.BellmanFordBlocks(ctx, g, 0, core.Options{Mode: core.Sparse, Procs: procs}, drainShift)
			if !ctx.fired.Load() {
				t.Fatalf("p%d k=%d: the drain made fewer than %d checks", procs, k, k+1)
			}
			var re *algo.RoundError
			if !errors.As(err, &re) || !errors.Is(err, context.Canceled) {
				t.Fatalf("p%d k=%d: err = %v, want a *RoundError wrapping context.Canceled", procs, k, err)
			}
			exact := true
			for v, w := range want {
				if res.Dist[v] < w {
					t.Fatalf("p%d k=%d: dist[%d] = %d below the true %d", procs, k, v, res.Dist[v], w)
				}
				exact = exact && res.Dist[v] == w
			}
			if !exact {
				partial++
			}
		}
	}
	if partial == 0 {
		t.Error("no cancellation left a distance unsettled: the drain was never interrupted mid-run")
	}
}
