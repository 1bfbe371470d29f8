package parallel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountingSortByKeyBasic(t *testing.T) {
	type kv struct{ k, idx int }
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
		const buckets = 37
		in := make([]kv, n)
		for i := range in {
			in[i] = kv{rng.Intn(buckets), i}
		}
		out := make([]kv, n)
		offsets := CountingSortByKey(in, out, buckets, func(v kv) int { return v.k })
		if len(offsets) != buckets+1 {
			t.Fatalf("offsets length %d", len(offsets))
		}
		if offsets[0] != 0 || offsets[buckets] != int64(n) {
			t.Fatalf("offset endpoints %d %d", offsets[0], offsets[buckets])
		}
		// Sorted by key, stable within key, and bucket boundaries correct.
		for k := 0; k < buckets; k++ {
			lo, hi := offsets[k], offsets[k+1]
			prevIdx := -1
			for i := lo; i < hi; i++ {
				if out[i].k != k {
					t.Fatalf("n=%d: item at %d has key %d, want %d", n, i, out[i].k, k)
				}
				if out[i].idx <= prevIdx {
					t.Fatalf("n=%d: stability violated in bucket %d", n, k)
				}
				prevIdx = out[i].idx
			}
		}
	}
}

func TestCountingSortLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CountingSortByKey(make([]int, 3), make([]int, 4), 2, func(int) int { return 0 })
}

func TestRadixSortByKeyMatchesComparison(t *testing.T) {
	f := func(raw []uint32) bool {
		in := make([]int64, len(raw))
		for i, r := range raw {
			in[i] = int64(r)
		}
		want := append([]int64(nil), in...)
		Sort(want)
		RadixSortByKey(in, 1<<32, func(v int64) int64 { return v })
		for i := range in {
			if in[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortStability(t *testing.T) {
	type kv struct {
		k   int64
		idx int
	}
	rng := rand.New(rand.NewSource(3))
	n := 50000
	in := make([]kv, n)
	for i := range in {
		in[i] = kv{int64(rng.Intn(1000)), i}
	}
	RadixSortByKey(in, 1000, func(v kv) int64 { return v.k })
	for i := 1; i < n; i++ {
		if in[i-1].k > in[i].k {
			t.Fatalf("order violated at %d", i)
		}
		if in[i-1].k == in[i].k && in[i-1].idx > in[i].idx {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestRadixSortLargeKeys(t *testing.T) {
	in := []int64{1 << 40, 3, 1<<40 + 1, 0, 1 << 20}
	RadixSortByKey(in, 1<<41, func(v int64) int64 { return v })
	want := []int64{0, 3, 1 << 20, 1 << 40, 1<<40 + 1}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("in[%d] = %d, want %d", i, in[i], want[i])
		}
	}
}
