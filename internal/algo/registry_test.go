package algo

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// TestEveryRunnerRuns executes each table entry on a small graph and
// checks it produces a summary and JSON-friendly details.
func TestEveryRunnerRuns(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(31))
	for _, r := range Runners() {
		view := graph.View(g)
		if r.NeedsWeights {
			view = wg
		}
		p := Params{Source: 0}
		if r.Name == "landmarks" {
			p.Landmarks = []uint32{1, 2}
		}
		res, err := r.Run(context.Background(), view, p)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if res.Summary == "" {
			t.Errorf("%s: empty summary", r.Name)
		}
		if len(res.Details) == 0 {
			t.Errorf("%s: no details", r.Name)
		}
	}
}

// TestRunnersOnZeroVertexGraph: every runner that needs no source answers
// on the empty graph with a well-formed reply — no error, every float a
// finite number (JSON has no NaN), and no negative round count.
func TestRunnersOnZeroVertexGraph(t *testing.T) {
	g, err := graph.ReadAdjacency(strings.NewReader("AdjacencyGraph\n0\n0\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Runners() {
		if r.NeedsSource {
			continue
		}
		res, err := r.Run(context.Background(), g, Params{})
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		for k, v := range res.Details {
			if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
				t.Errorf("%s: %s = %v", r.Name, k, f)
			}
			if n, ok := v.(int); ok && k == "rounds" && n < 0 {
				t.Errorf("%s: rounds = %d", r.Name, n)
			}
		}
	}
}

func TestFindRunner(t *testing.T) {
	r, ok := FindRunner("bfs")
	if !ok || r.Name != "bfs" || !r.NeedsSource || !r.Cancellable {
		t.Fatalf("bfs runner = %+v, ok=%t", r, ok)
	}
	if _, ok := FindRunner("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	if err := UnknownAlgoError("nope"); !strings.Contains(err.Error(), "bfs") {
		t.Errorf("UnknownAlgoError should list the valid names: %v", err)
	}
	if len(RunnerNames()) != len(Runners()) {
		t.Error("RunnerNames out of sync with Runners")
	}
}

// TestCancellableRunnersReturnPartial proves every runner marked
// Cancellable honors an already-expired context: it returns a deadline
// error (wrapped in *RoundError) together with a usable partial summary.
func TestCancellableRunnersReturnPartial(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.AddWeights(graph.HashWeight(31))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Runners() {
		if !r.Cancellable {
			continue
		}
		view := graph.View(g)
		if r.NeedsWeights {
			view = wg
		}
		p := Params{Source: 0}
		if r.Name == "landmarks" {
			p.Landmarks = []uint32{1} // validation precedes the sweep
		}
		_, err := r.Run(ctx, view, p)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.Name, err)
		}
		var re *RoundError
		if !errors.As(err, &re) {
			t.Errorf("%s: error is not a *RoundError: %v", r.Name, err)
		}
	}
}
