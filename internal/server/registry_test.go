package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(8, 8, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLoadSingleFlight proves concurrent loads of the same name+source do
// one build: N racers all succeed, the builder runs once, and everyone
// sees the same graph.
func TestLoadSingleFlight(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (graph.View, error) {
		builds.Add(1)
		<-release // hold the load open until every racer has joined
		return g, nil
	}

	const racers = 8
	var wg sync.WaitGroup
	infos := make([]GraphInfo, racers)
	errs := make([]error, racers)
	var started sync.WaitGroup
	started.Add(racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			infos[i], errs[i] = r.Load(context.Background(), "g", "src", build)
		}(i)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the racers reach Load
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if infos[i].Vertices != g.NumVertices() {
			t.Errorf("racer %d saw %d vertices, want %d", i, infos[i].Vertices, g.NumVertices())
		}
	}
	got, _, err := r.Get(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Error("Get returned a different graph than the one loaded")
	}
}

func TestLoadConflictAndEvict(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	build := func() (graph.View, error) { return g, nil }
	if _, err := r.Load(context.Background(), "g", "src-a", build); err != nil {
		t.Fatal(err)
	}
	// Same source: idempotent, no rebuild needed.
	if _, err := r.Load(context.Background(), "g", "src-a", func() (graph.View, error) {
		t.Error("builder ran for an already-resident graph")
		return g, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Different source: conflict.
	if _, err := r.Load(context.Background(), "g", "src-b", build); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if !r.Evict("g") {
		t.Fatal("evict of resident graph reported absent")
	}
	if r.Evict("g") {
		t.Fatal("second evict reported present")
	}
	if _, _, err := r.Get(context.Background(), "g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// After evict, the conflicting source can load.
	if _, err := r.Load(context.Background(), "g", "src-b", build); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFailureIsRetryable(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	if _, err := r.Load(context.Background(), "g", "src", func() (graph.View, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	g := testGraph(t)
	if _, err := r.Load(context.Background(), "g", "src", func() (graph.View, error) {
		return g, nil
	}); err != nil {
		t.Fatalf("retry after failed load: %v", err)
	}
}

func TestListSortedWithMemory(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	for _, name := range []string{"zeta", "alpha"} {
		if _, err := r.Load(context.Background(), name, "src", func() (graph.View, error) { return g, nil }); err != nil {
			t.Fatal(err)
		}
	}
	infos := r.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("List = %+v, want alpha then zeta", infos)
	}
	if infos[0].MemoryBytes <= 0 {
		t.Error("memory estimate missing")
	}
}
