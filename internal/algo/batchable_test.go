package algo

import (
	"reflect"
	"testing"
)

// TestBatchResultMatchesRunners: a mixed batch of bfs / reach / landmarks
// queries answered from ONE shared sweep, each read through its row's
// FromSweep, must produce RunResults deeply equal to each query's own
// unbatched runner invocation — the "semantically invisible" guarantee
// the serving batch collector relies on.
func TestBatchResultMatchesRunners(t *testing.T) {
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		type query struct {
			algo string
			p    Params
		}
		var queries []query
		for i := 0; i < 24; i++ {
			src := uint32(hashU64(3, uint64(i)) % uint64(n))
			switch i % 3 {
			case 0:
				queries = append(queries, query{"bfs", Params{Source: src}})
			case 1:
				queries = append(queries, query{"reach", Params{Source: src, Target: uint32(hashU64(5, uint64(i)) % uint64(n))}})
			default:
				queries = append(queries, query{"landmarks", Params{Source: src, Landmarks: []uint32{
					uint32(hashU64(7, uint64(i)) % uint64(n)),
					uint32(hashU64(9, uint64(i)) % uint64(n)),
				}}})
			}
		}
		sources := make([]uint32, len(queries))
		var probes []uint32
		for i, q := range queries {
			runner, _ := FindRunner(q.algo)
			sources[i] = q.p.Source
			probes = append(probes, runner.Probes(q.p)...)
		}
		res, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{Probes: probes})
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for i, q := range queries {
			runner, ok := FindRunner(q.algo)
			if !ok {
				t.Fatalf("no runner %q", q.algo)
			}
			want, err := runner.Run(nil, g, q.p)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, q.algo, err)
			}
			got := runner.FromSweep(res, i, q.p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: batched %s query %d diverges:\n got %+v\nwant %+v", gname, q.algo, i, got, want)
			}
		}
	}
}

// TestBatchableSet: the bfs, reach and landmarks rows, and no other,
// ride a shared sweep.
func TestBatchableSet(t *testing.T) {
	for _, r := range Runners() {
		want := r.Name == "bfs" || r.Name == "reach" || r.Name == "landmarks"
		if r.Sweeps() != want {
			t.Errorf("%s: Sweeps() = %t, want %t", r.Name, r.Sweeps(), want)
		}
	}
}

// TestBatchValidate pins the reach and landmarks rows' own checks, which
// the server runs at plan time so a sweep never reads an out-of-range
// probe as "unreachable".
func TestBatchValidate(t *testing.T) {
	g := edgeless(t, 10)
	validate := func(name string, p Params) error {
		r, _ := FindRunner(name)
		return r.Validate(g, p)
	}
	if err := validate("reach", Params{Target: 10}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if err := validate("reach", Params{Target: 9}); err != nil {
		t.Fatal(err)
	}
	if err := validate("landmarks", Params{}); err == nil {
		t.Fatal("empty landmarks accepted")
	}
	if err := validate("landmarks", Params{Landmarks: []uint32{3, 10}}); err == nil {
		t.Fatal("out-of-range landmark accepted")
	}
	if err := validate("landmarks", Params{Landmarks: make([]uint32, MaxLandmarks+1)}); err == nil {
		t.Fatal("oversized landmark list accepted")
	}
	if err := validate("bfs", Params{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunResultEstimateBytes(t *testing.T) {
	r := RunResult{
		Summary: "x",
		Details: map[string]any{"distances": []int64{1, 2, 3}, "source": uint32(4)},
	}
	if b := r.EstimateBytes(); b < 24 {
		t.Fatalf("slice bytes not counted: %d", b)
	}
}
