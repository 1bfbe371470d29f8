package ligra_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ligra"
	"ligra/internal/faultinject"
)

// TestPublicDeadlineFlow exercises the acceptance scenario through the
// public API: a long PageRank under a 1ms deadline returns
// DeadlineExceeded plus the last completed iteration's ranks.
func TestPublicDeadlineFlow(t *testing.T) {
	g, err := ligra.RMAT(13, 8, ligra.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()

	opts := ligra.DefaultPageRankOptions()
	opts.Epsilon = 0
	opts.MaxIterations = 1 << 20
	res, rerr := ligra.PageRank(ctx, g, opts)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", rerr)
	}
	var re *ligra.RoundError
	if !errors.As(rerr, &re) {
		t.Fatalf("err = %v (%T), want *ligra.RoundError", rerr, rerr)
	}
	if res == nil || len(res.Ranks) != g.NumVertices() {
		t.Fatal("no partial ranks from interrupted PageRank")
	}
	if res.Iterations != re.Round {
		t.Errorf("Iterations = %d, RoundError.Round = %d", res.Iterations, re.Round)
	}
}

// TestPublicCancelFlow checks that BFS through the public wrapper
// honours an already-cancelled context and still returns a valid minimal
// forest.
func TestPublicCancelFlow(t *testing.T) {
	g, err := ligra.RMAT(10, 8, ligra.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, rerr := ligra.BFS(ctx, g, 0, ligra.Options{})
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rerr)
	}
	if res == nil || res.Parents[0] != 0 {
		t.Fatal("no valid partial forest")
	}
	for v, p := range res.Parents[1:] {
		if p != ligra.None {
			t.Fatalf("vertex %d claimed parent %d under a pre-cancelled context", v+1, p)
		}
	}
}

// TestPublicPanicContainment checks that a worker fault injected into a
// public entry point surfaces as the typed *ligra.PanicError the API
// promises, returned as an error, never a bare runtime panic.
func TestPublicPanicContainment(t *testing.T) {
	g, err := ligra.RMAT(10, 8, ligra.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.PanicOnChunk(2, "injected public fault")
	defer disarm()
	_, rerr := ligra.BFS(context.Background(), g, 0, ligra.Options{})
	var pe *ligra.PanicError
	if !errors.As(rerr, &pe) {
		t.Fatalf("err = %v (%T), want a *ligra.PanicError", rerr, rerr)
	}
	if pe.Value != "injected public fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
}
