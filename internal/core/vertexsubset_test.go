package core

import (
	"context"
	"os"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"ligra/internal/bitset"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(4)
	os.Exit(m.Run())
}

// bg is the context of calls that have nothing to observe.
var bg = context.Background()

// must returns v, panicking (and so failing the calling test) on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestEmptyAndSingle(t *testing.T) {
	e := NewEmpty(10)
	if !e.IsEmpty() || e.Size() != 0 || e.UniverseSize() != 10 {
		t.Error("empty subset malformed")
	}
	s := NewSingle(10, 3)
	if s.Size() != 1 || !s.Contains(3) || s.Contains(4) {
		t.Error("single subset malformed")
	}
}

func TestNewSinglePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSingle(5, 5)
}

func TestSparseDenseRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		// Dedup raw into a sorted unique set.
		seen := map[uint32]bool{}
		var ids []uint32
		for _, r := range raw {
			v := uint32(r)
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
			}
		}
		vs := NewSparse(n, ids)
		if vs.Size() != len(ids) {
			return false
		}
		d := must(vs.ToDense(bg))
		for v := range seen {
			if !d.Get(int(v)) {
				return false
			}
		}
		if d.Count() != len(ids) {
			return false
		}
		// Round-trip through a fresh dense-only subset.
		b := bitset.New(n)
		for v := range seen {
			b.Set(int(v))
		}
		vs2 := NewDense(n, b)
		back := append([]uint32(nil), must(vs2.ToSparse(bg))...)
		sort.Slice(back, func(i, j int) bool { return back[i] < back[j] })
		want := append([]uint32(nil), ids...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(back) != len(want) {
			return false
		}
		for i := range want {
			if back[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewAll(t *testing.T) {
	vs := NewAll(1000)
	if vs.Size() != 1000 {
		t.Fatalf("Size = %d", vs.Size())
	}
	if !vs.Contains(0) || !vs.Contains(999) {
		t.Error("NewAll missing members")
	}
	if got := len(must(vs.ToSparse(bg))); got != 1000 {
		t.Errorf("sparse length %d", got)
	}
}

func TestNewFromFunc(t *testing.T) {
	vs := must(NewFromFunc(bg, 100, func(v uint32) bool { return v%7 == 0 }))
	want := (100 + 6) / 7
	if vs.Size() != want {
		t.Errorf("Size = %d, want %d", vs.Size(), want)
	}
	if !vs.Contains(0) || !vs.Contains(98) || vs.Contains(1) {
		t.Error("membership wrong")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	vs := must(NewFromFunc(bg, 5000, func(v uint32) bool { return v%3 == 0 }))
	var visits []int32 = make([]int32, 5000)
	if err := vs.ForEach(bg, func(v uint32) { visits[v]++ }); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5000; v++ {
		want := int32(0)
		if v%3 == 0 {
			want = 1
		}
		if visits[v] != want {
			t.Fatalf("vertex %d visited %d times, want %d", v, visits[v], want)
		}
	}
	// Sequential variant, sparse representation.
	sp := NewSparse(10, []uint32{4, 2, 9})
	var order []uint32
	sp.ForEachSeq(func(v uint32) { order = append(order, v) })
	if len(order) != 3 || order[0] != 4 || order[1] != 2 || order[2] != 9 {
		t.Errorf("sparse ForEachSeq order = %v", order)
	}
}

func TestClone(t *testing.T) {
	vs := NewSparse(10, []uint32{1, 2, 3})
	must(vs.ToDense(bg)) // materialize both
	c := vs.Clone()
	if c.Size() != 3 || !c.Contains(2) {
		t.Error("clone wrong")
	}
	// Mutating the clone's dense form must not affect the original.
	must(c.ToDense(bg)).Set(9)
	if vs.Contains(9) {
		t.Error("clone aliases original")
	}
}

func TestVertexFilter(t *testing.T) {
	// Sparse input.
	sp := NewSparse(100, []uint32{1, 2, 3, 4, 5})
	f1 := must(VertexFilter(bg, sp, func(v uint32) bool { return v%2 == 0 }))
	if f1.Size() != 2 || !f1.Contains(2) || !f1.Contains(4) {
		t.Error("sparse filter wrong")
	}
	// Dense input.
	dn := must(NewFromFunc(bg, 100, func(v uint32) bool { return v < 10 }))
	f2 := must(VertexFilter(bg, dn, func(v uint32) bool { return v >= 5 }))
	if f2.Size() != 5 || !f2.Contains(5) || f2.Contains(4) {
		t.Error("dense filter wrong")
	}
}

func TestVertexMap(t *testing.T) {
	vs := NewSparse(10, []uint32{0, 5, 9})
	sum := make([]int32, 10)
	if err := VertexMap(bg, vs, func(v uint32) { sum[v] = int32(v) * 2 }); err != nil {
		t.Fatal(err)
	}
	if sum[5] != 10 || sum[9] != 18 || sum[1] != 0 {
		t.Error("VertexMap wrong")
	}
}
