package algo_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/core"
	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/seq"
	"ligra/internal/viewtest"
)

// distanceGraphs are the point-query fixtures: symmetric rMat (isolated
// vertices beside one giant component), grid3d (one component, long
// paths), a sparse Erdős–Rényi graph (many small components) and directed
// rMat, where a target side must read in-rows.
func distanceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for name, build := range map[string]func() (*graph.Graph, error){
		"rmat":          func() (*graph.Graph, error) { return gen.RMAT(9, 8, gen.PBBSRMAT, 1) },
		"grid3d":        func() (*graph.Graph, error) { return gen.Grid3D(7) },
		"er-sparse":     func() (*graph.Graph, error) { return gen.ErdosRenyi(300, 250, 3) },
		"rmat-directed": func() (*graph.Graph, error) { return gen.RMATDirected(9, 4, gen.PBBSRMAT, 4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	return gs
}

// pointQuery is one call of the search: a source and its targets.
type pointQuery struct {
	name    string
	source  uint32
	targets []uint32
}

// pointQueries are the target lists the differential test asks on g:
// single targets near and far, in another component, on an isolated
// vertex and on the source; landmark lists with duplicates and the
// source; and 64 landmarks.
func pointQueries(g *graph.Graph) []pointQuery {
	n := g.NumVertices()
	source, _ := algo.DefaultSource(context.Background(), g) // in the giant component
	levels := seq.BFSLevels(g, source)
	spread := func(k, salt int) []uint32 {
		ts := make([]uint32, k)
		for i := range ts {
			ts[i] = uint32(algo.HashU64(uint64(salt), uint64(i)) % uint64(n))
		}
		return ts
	}
	qs := []pointQuery{
		{"source==target", source, []uint32{source}},
		{"far", source, []uint32{uint32(slices.Index(levels, slices.Max(levels)))}},
		{"duplicates", source, []uint32{5, 9, 5, source, 9, 5}},
		{"landmarks-4", source, spread(4, 1)},
		{"landmarks-64", source, spread(algo.MaxLandmarks, 2)},
	}
	for i, v := range spread(6, 3) {
		qs = append(qs, pointQuery{fmt.Sprintf("reach-%d", i), v, []uint32{uint32((int(v) + n/2) % n)}})
	}
	isolated := -1
	for v := range n {
		if g.OutDegree(uint32(v)) == 0 && g.InDegree(uint32(v)) == 0 {
			isolated = v
			break
		}
	}
	// Unreachable but not isolated: another component, or (directed)
	// upstream of the source.
	other := -1
	for v, l := range levels {
		if l < 0 && (g.OutDegree(uint32(v)) > 0 || g.InDegree(uint32(v)) > 0) {
			other = v
			break
		}
	}
	if isolated >= 0 {
		qs = append(qs,
			pointQuery{"isolated-target", source, []uint32{uint32(isolated)}},
			pointQuery{"isolated-source", uint32(isolated), []uint32{source, uint32(isolated)}})
	}
	if other >= 0 {
		qs = append(qs,
			pointQuery{"other-component", source, []uint32{uint32(other)}},
			pointQuery{"from-other-component", uint32(other), []uint32{source, uint32(other), 0}})
	}
	return qs
}

// TestDistancesMatchLevels: on every representation, in every mode and
// at procs 1 and 4, the point-query search answers every distance the
// sequential BFS oracle gives.
func TestDistancesMatchLevels(t *testing.T) {
	ctx := context.Background()
	asked := map[string]bool{}
	for gname, g := range distanceGraphs(t) {
		qs := pointQueries(g)
		for _, q := range qs {
			asked[gname+"/"+q.name] = true
		}
		want := make([][]int32, len(qs))
		for i, q := range qs {
			levels := seq.BFSLevels(g, q.source)
			for _, v := range q.targets {
				want[i] = append(want[i], levels[v])
			}
		}
		for vname, v := range viewtest.Matrix(t, g, viewtest.NetZero(g)...) {
			for mname, opts := range rowModes() {
				for i, q := range qs {
					got, err := algo.Distances(ctx, v, q.source, q.targets, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", gname, vname, mname, q.name, err)
					}
					if !slices.Equal(got, want[i]) {
						t.Errorf("%s/%s/%s/%s from %d: distances %v, want %v", gname, vname, mname, q.name, q.source, got, want[i])
					}
				}
			}
		}
	}
	for _, q := range []string{"rmat/isolated-target", "er-sparse/other-component", "rmat-directed/other-component"} {
		if !asked[q] {
			t.Errorf("fixtures never asked %s", q)
		}
	}
}

// TestDistancesHoldFewLevels: however many landmarks a query names, the
// search holds at most five level arrays of n at once, one for the
// source side and four for target sides, and 64 landmarks do start
// target sides.
func TestDistancesHoldFewLevels(t *testing.T) {
	const bound = 5
	ctx := context.Background()
	for gname, g := range distanceGraphs(t) {
		for _, q := range pointQueries(g) {
			_, held, err := algo.DistancesHeld(ctx, g, q.source, q.targets, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, q.name, err)
			}
			if held > bound {
				t.Errorf("%s/%s: held %d level arrays at once, want at most %d", gname, q.name, held, bound)
			}
			if q.name == "landmarks-64" && held < 2 && gname != "er-sparse" {
				t.Errorf("%s/%s: held %d level arrays, want a target side started", gname, q.name, held)
			}
		}
	}
}

// TestDistancesCancelled: a ctx cancelled on entry, and one cancelled
// before each round of a search in turn, return a *RoundError counting
// the rounds both sides completed; each distance answered is exact and
// each target left open reads -1.
func TestDistancesCancelled(t *testing.T) {
	g, err := gen.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	const source = 60
	targets := []uint32{150, 60, 199, 20, 150, 0}
	check := func(name string, got []int32) (open int) {
		for i, d := range got {
			exact := int32(max(int(targets[i]), source) - min(int(targets[i]), source))
			switch d {
			case -1:
				open++
			case exact:
			default:
				t.Errorf("%s: distance to %d is %d, want %d or -1", name, targets[i], d, exact)
			}
		}
		return open
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := algo.Distances(ctx, g, source, targets, core.Options{})
	var re *algo.RoundError
	if !errors.As(err, &re) || !errors.Is(err, context.Canceled) || re.Round != 0 {
		t.Fatalf("pre-cancelled: err = %v, want a *RoundError after round 0 wrapping context.Canceled", err)
	}
	if check("pre-cancelled", got) != len(targets)-1 {
		t.Errorf("pre-cancelled: distances %v, want only the source's", got)
	}

	partial := false
	for n := 1; ; n++ {
		ctx, disarm := faultinject.CancelOnRound(context.Background(), n)
		got, err := algo.Distances(ctx, g, source, targets, core.Options{})
		disarm()
		name := fmt.Sprintf("cancel at round %d", n)
		open := check(name, got)
		if err == nil {
			if open != 0 {
				t.Fatalf("%s: finished with %d targets open: %v", name, open, got)
			}
			if !partial {
				t.Fatal("no cancellation left some targets answered and others open")
			}
			return
		}
		if !errors.As(err, &re) || !errors.Is(err, context.Canceled) || re.Round != n-1 {
			t.Fatalf("%s: err = %v, want a *RoundError after round %d wrapping context.Canceled", name, err, n-1)
		}
		partial = partial || (open > 0 && open < len(targets)-1)
	}
}

// TestReachAndLandmarksRunnersMatchOracle: the reach and landmarks rows
// reply the oracle's distances, through the search behind both, from
// sources across every fixture.
func TestReachAndLandmarksRunnersMatchOracle(t *testing.T) {
	ctx := context.Background()
	reach, _ := algo.FindRunner("reach")
	landmarks, _ := algo.FindRunner("landmarks")
	for gname, g := range distanceGraphs(t) {
		n := uint64(g.NumVertices())
		for i := range uint64(8) {
			source := uint32(algo.HashU64(11, i) % n)
			levels := seq.BFSLevels(g, source)
			target := uint32(algo.HashU64(13, i) % n)
			res, err := reach.Run(ctx, g, algo.Params{Source: source, Target: target})
			if err != nil {
				t.Fatal(err)
			}
			if d := res.Details["distance"]; d != int64(levels[target]) || res.Details["reachable"] != (levels[target] >= 0) {
				t.Errorf("%s: reach %d -> %d: %v, oracle %d", gname, source, target, res.Details, levels[target])
			}
			lms := []uint32{target, source, uint32(algo.HashU64(17, i) % n), target}
			want := make([]int64, len(lms))
			for j, l := range lms {
				want[j] = int64(levels[l])
			}
			res, err = landmarks.Run(ctx, g, algo.Params{Source: source, Landmarks: lms})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Details["distances"].([]int64); !slices.Equal(got, want) {
				t.Errorf("%s: landmarks from %d: %v, oracle %v", gname, source, got, want)
			}
		}
	}
}

// TestDistancesConcurrentQueries: searches running at once share the
// level pool; each must find every array it takes reading -1, so each
// answers the oracle's distances.
func TestDistancesConcurrentQueries(t *testing.T) {
	g, err := gen.RMATDirected(10, 4, gen.PBBSRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(g.NumVertices())
	var wg sync.WaitGroup
	for w := range uint64(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range uint64(16) {
				source := uint32(algo.HashU64(w, i) % n)
				targets := []uint32{uint32(algo.HashU64(w+7, i) % n), uint32(algo.HashU64(w+9, i) % n), source}
				got, err := algo.Distances(context.Background(), g, source, targets, core.Options{Procs: 2})
				if err != nil {
					t.Error(err)
					return
				}
				levels := seq.BFSLevels(g, source)
				for j, v := range targets {
					if got[j] != levels[v] {
						t.Errorf("from %d: distance to %d is %d, want %d", source, v, got[j], levels[v])
					}
				}
			}
		}()
	}
	wg.Wait()
}
