package algo

import (
	"context"
	"errors"
	"testing"
	"time"

	"ligra/internal/core"
	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/parallel"
)

// requireInterrupted asserts the error is a *RoundError wrapping the given
// context error.
func requireInterrupted(t *testing.T, err, cause error) *RoundError {
	t.Helper()
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want one wrapping %v", err, cause)
	}
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RoundError", err, err)
	}
	if re.Algo == "" {
		t.Error("RoundError.Algo is empty")
	}
	return re
}

// TestCtxVariantsPreCancelled runs every Ctx entry point with an
// already-cancelled context: each must return a RoundError wrapping
// context.Canceled together with a structurally sane partial result.
func TestCtxVariantsPreCancelled(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := gen.RMATDirected(8, 4, gen.PBBSRMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(32))
	n := g.NumVertices()
	opts := core.Options{}

	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"bfs", func(ctx context.Context) error {
			res, err := BFSCtx(ctx, g, 0, opts)
			if res == nil || len(res.Parents) != n {
				t.Error("bfs: missing or truncated partial result")
			} else if res.Parents[0] != 0 {
				t.Error("bfs: source not its own parent in partial result")
			}
			return err
		}},
		{"bfs-levels", func(ctx context.Context) error {
			levels, err := BFSLevelsCtx(ctx, g, 0, opts)
			if len(levels) != n || levels[0] != 0 {
				t.Error("bfs-levels: bad partial result")
			}
			return err
		}},
		{"bc", func(ctx context.Context) error {
			res, err := BCCtx(ctx, g, 0, opts)
			if res == nil || len(res.Scores) != n {
				t.Error("bc: missing partial result")
			}
			return err
		}},
		{"bc-approx", func(ctx context.Context) error {
			res, err := BCApproxCtx(ctx, g, 4, 7, opts)
			if res == nil || len(res.Scores) != n {
				t.Error("bc-approx: missing partial result")
			} else if len(res.Sources) != 0 {
				t.Errorf("bc-approx: %d sources reported complete under a pre-cancelled ctx", len(res.Sources))
			}
			return err
		}},
		{"radii", func(ctx context.Context) error {
			res, err := RadiiCtx(ctx, g, RadiiOptions{K: 8, Seed: 1})
			if res == nil || len(res.Radii) != n {
				t.Error("radii: missing partial result")
			}
			return err
		}},
		{"radii-multi", func(ctx context.Context) error {
			// k > 64 exercises the batched multi-source path.
			res, err := RadiiMultiCtx(ctx, g, 100, 1, opts)
			if res == nil || len(res.Radii) != n {
				t.Error("radii-multi: missing partial result")
			}
			return err
		}},
		{"components", func(ctx context.Context) error {
			res, err := ConnectedComponentsCtx(ctx, g, opts)
			if res == nil || len(res.Labels) != n {
				t.Error("components: missing partial result")
			}
			return err
		}},
		{"pagerank", func(ctx context.Context) error {
			res, err := PageRankCtx(ctx, g, PageRankOptions{Damping: 0.85, MaxIterations: 10})
			if res == nil || len(res.Ranks) != n {
				t.Error("pagerank: missing partial result")
			} else if res.Iterations != 0 {
				t.Errorf("pagerank: %d iterations ran under a pre-cancelled ctx", res.Iterations)
			}
			return err
		}},
		{"pagerank-delta", func(ctx context.Context) error {
			res, err := PageRankDeltaCtx(ctx, g, PageRankOptions{Damping: 0.85, MaxIterations: 10}, 0.01)
			if res == nil || len(res.Ranks) != n {
				t.Error("pagerank-delta: missing partial result")
			}
			return err
		}},
		{"bellman-ford", func(ctx context.Context) error {
			res, err := BellmanFordCtx(ctx, wg, 0, opts)
			if res == nil || len(res.Dist) != n {
				t.Error("bellman-ford: missing partial result")
			} else if res.Dist[0] != 0 {
				t.Error("bellman-ford: source distance not 0 in partial result")
			}
			return err
		}},
		{"delta-stepping", func(ctx context.Context) error {
			res, err := DeltaSteppingCtx(ctx, wg, 0, 8, opts)
			if res == nil || len(res.Dist) != n {
				t.Error("delta-stepping: missing partial result")
			}
			return err
		}},
		{"kcore", func(ctx context.Context) error {
			res, err := KCoreCtx(ctx, g, opts)
			if res == nil || len(res.Coreness) != n {
				t.Error("kcore: missing partial result")
			}
			return err
		}},
		{"mis", func(ctx context.Context) error {
			res, err := MISCtx(ctx, g, 3, opts)
			if res == nil || len(res.InSet) != n {
				t.Error("mis: missing partial result")
			}
			return err
		}},
		{"scc", func(ctx context.Context) error {
			res, err := SCCCtx(ctx, dg, opts)
			if res == nil || len(res.Labels) != dg.NumVertices() {
				t.Error("scc: missing partial result")
			}
			return err
		}},
		{"eccentricity", func(ctx context.Context) error {
			res, err := TwoPassEccentricityCtx(ctx, g, 8, 1, opts)
			if res == nil || len(res.Ecc) != n {
				t.Error("eccentricity: missing partial result")
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			requireInterrupted(t, tc.run(ctx), context.Canceled)
		})
	}
}

// TestBFSCtxCancelOnRoundPartialForest interrupts a BFS over a long path
// graph after three completed rounds and checks that the partial parent
// array is a valid BFS forest prefix.
func TestBFSCtxCancelOnRoundPartialForest(t *testing.T) {
	g, err := gen.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	ctx, disarm := faultinject.CancelOnRound(context.Background(), 4)
	defer disarm()

	res, err := BFSCtx(ctx, g, 0, core.Options{})
	re := requireInterrupted(t, err, context.Canceled)
	if re.Round != 3 {
		t.Errorf("RoundError.Round = %d, want 3 completed rounds", re.Round)
	}
	if res.Parents[0] != 0 {
		t.Fatal("source lost its self-parent")
	}
	claimed := 0
	for v, p := range res.Parents {
		if p == core.None {
			continue
		}
		claimed++
		if v == 0 {
			continue
		}
		// On the path graph a parent must be an actual neighbour.
		if p != uint32(v-1) && p != uint32(v+1) {
			t.Errorf("vertex %d has non-neighbour parent %d", v, p)
		}
	}
	if claimed >= g.NumVertices() {
		t.Error("BFS claimed every vertex despite the injected cancellation")
	}
	if claimed < 2 {
		t.Errorf("only %d vertices claimed; completed rounds made no progress", claimed)
	}
	if res.Visited != claimed {
		t.Errorf("Visited = %d but %d parents are set", res.Visited, claimed)
	}
}

// TestPageRankCtxDeadlineOnRMAT is the acceptance scenario: an effectively
// unbounded PageRank on a larger RMAT graph with a 1ms deadline must come
// back promptly with DeadlineExceeded and the last completed iteration's
// ranks.
func TestPageRankCtxDeadlineOnRMAT(t *testing.T) {
	g, err := gen.RMAT(14, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()

	start := time.Now()
	res, rerr := PageRankCtx(ctx, g, PageRankOptions{Damping: 0.85, MaxIterations: 1 << 20})
	elapsed := time.Since(start)

	requireInterrupted(t, rerr, context.DeadlineExceeded)
	if res == nil || len(res.Ranks) != g.NumVertices() {
		t.Fatal("no partial ranks returned")
	}
	if res.Iterations >= 1<<20 {
		t.Error("PageRank claims to have finished every iteration")
	}
	for i, r := range res.Ranks {
		if r < 0 || r > 1 {
			t.Fatalf("partial rank %d out of range: %g", i, r)
		}
	}
	// Generous bound: cancellation is cooperative at chunk granularity, so
	// the call must return promptly after the deadline, not after 2^20
	// iterations.
	if elapsed > 10*time.Second {
		t.Errorf("PageRankCtx took %v to honour a 1ms deadline", elapsed)
	}
}

// TestBFSCtxDeadlineOnRMAT: with an already-expired deadline BFS returns
// DeadlineExceeded and the minimal valid partial forest.
func TestBFSCtxDeadlineOnRMAT(t *testing.T) {
	g, err := gen.RMAT(14, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, rerr := BFSCtx(ctx, g, 0, core.Options{})
	requireInterrupted(t, rerr, context.DeadlineExceeded)
	if res == nil || len(res.Parents) != g.NumVertices() || res.Parents[0] != 0 {
		t.Fatal("no valid partial forest returned")
	}
}

// TestBFSCtxFaultInjectedPanic arms the chunk-panic hook and checks the
// fault is contained as a typed *parallel.PanicError whichever parallel
// primitive it lands in (returned as an error from the Ctx entry point, or
// re-panicked typed by a plain primitive inside it).
func TestBFSCtxFaultInjectedPanic(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.PanicOnChunk(3, "injected algo fault")
	defer disarm()

	var rerr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*parallel.PanicError)
				if !ok {
					t.Fatalf("panic value is %T (%v), want *parallel.PanicError", r, r)
				}
				rerr = pe
			}
		}()
		_, rerr = BFSCtx(context.Background(), g, 0, core.Options{})
	}()

	var pe *parallel.PanicError
	if !errors.As(rerr, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", rerr)
	}
	if pe.Value != "injected algo fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}

// TestRoundErrorUnwrap pins the error-chain contract: errors.Is sees the
// context cause and errors.As extracts both RoundError and PanicError.
func TestRoundErrorUnwrap(t *testing.T) {
	inner := &parallel.PanicError{Value: "x"}
	err := roundErr("test", 7, inner)
	var re *RoundError
	if !errors.As(err, &re) || re.Round != 7 || re.Algo != "test" {
		t.Fatalf("roundErr built %v", err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatal("PanicError not reachable through RoundError")
	}
	if roundErr("test", 0, nil) != nil {
		t.Error("roundErr(nil) must be nil")
	}
}
