package algo

import (
	"reflect"
	"testing"
)

// TestBatchResultMatchesRunners: a batch of bfs queries answered from ONE
// shared sweep, each read through its row's FromSweep, must produce
// RunResults deeply equal to each query's own unbatched runner invocation
// — the "semantically invisible" guarantee the serving batch collector
// relies on.
func TestBatchResultMatchesRunners(t *testing.T) {
	bfs, _ := FindRunner("bfs")
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		sources := make([]uint32, 24)
		for i := range sources {
			sources[i] = uint32(hashU64(3, uint64(i)) % uint64(n))
		}
		res, err := ClusterBFSCtx(nil, g, sources, ClusterBFSOptions{})
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for i, src := range sources {
			p := Params{Source: src}
			want, err := bfs.Run(nil, g, p)
			if err != nil {
				t.Fatalf("%s: %v", gname, err)
			}
			if got := bfs.FromSweep(res, i, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: batched bfs query %d diverges:\n got %+v\nwant %+v", gname, i, got, want)
			}
		}
	}
}

// TestBatchableSet: the bfs row, and no other, rides a shared sweep. A
// plain reach or landmarks query stops where its searches meet, which
// costs less than a sweep at the collector's crossover for any landmark
// count (ligra-bench -experiment batch, the point-query rows).
func TestBatchableSet(t *testing.T) {
	for _, r := range Runners() {
		if want := r.Name == "bfs"; r.Sweeps() != want {
			t.Errorf("%s: Sweeps() = %t, want %t", r.Name, r.Sweeps(), want)
		}
	}
}

// TestBatchValidate pins the reach and landmarks rows' own checks, which
// the server runs at plan time so a search never starts from an
// out-of-range target.
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
