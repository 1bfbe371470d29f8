package parallel

import (
	"math/rand"
	"slices"
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
		counts := make([]int64, numBlocks(bg, n)*buckets)
		ok(countingSortByKey(bg, in, out, buckets, counts, func(v kv) int { return v.k }))
		// Every item once, sorted by key, stable within a key.
		placed := make([]int, n)
		for i := range out {
			placed[out[i].idx]++
			if i > 0 && (out[i-1].k > out[i].k || out[i-1].k == out[i].k && out[i-1].idx > out[i].idx) {
				t.Fatalf("n=%d: order or stability violated at %d: %v then %v", n, i, out[i-1], out[i])
			}
		}
		for idx, c := range placed {
			if c != 1 {
				t.Fatalf("n=%d: item %d placed %d times", n, idx, c)
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
	_ = countingSortByKey(bg, make([]int, 3), make([]int, 4), 2, make([]int64, 2), func(int) int { return 0 })
}

func TestRadixSortByKeyMatchesComparison(t *testing.T) {
	f := func(raw []uint32) bool {
		in := make([]int64, len(raw))
		for i, r := range raw {
			in[i] = int64(r)
		}
		want := append([]int64(nil), in...)
		slices.Sort(want)
		ok(RadixSortByKey(bg, in, nil, 1<<32, func(v int64) int64 { return v }))
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
	ok(RadixSortByKey(bg, in, nil, 1000, func(v kv) int64 { return v.k }))
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
	ok(RadixSortByKey(bg, in, nil, 1<<41, func(v int64) int64 { return v }))
	want := []int64{0, 3, 1 << 20, 1 << 40, 1<<40 + 1}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("in[%d] = %d, want %d", i, in[i], want[i])
		}
	}
}
