package parallel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 50000} {
		got := SumFunc(n, func(i int) int64 { return int64(i) })
		want := int64(n) * int64(n-1) / 2
		if got != want {
			t.Errorf("SumFunc(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSumMatchesSequential(t *testing.T) {
	f := func(xs []int32) bool {
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		return SumFunc(len(xs), func(i int) int64 { return int64(xs[i]) }) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []int{5, -2, 9, 0, 7, -2, 9}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %d, want 9", got)
	}
	if got := MaxIndexFunc(len(xs), func(i int) int { return xs[i] }); got != 2 {
		t.Errorf("MaxIndexFunc = %d, want 2 (first max)", got)
	}
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max on empty slice did not panic")
		}
	}()
	Max([]int{})
}

func TestCountAnyAll(t *testing.T) {
	n := 10000
	if got := CountFunc(n, func(i int) bool { return i%3 == 0 }); got != (n+2)/3 {
		t.Errorf("CountFunc = %d, want %d", got, (n+2)/3)
	}
}

func TestScanExclusiveProperty(t *testing.T) {
	f := func(xs []int32) bool {
		in := make([]int64, len(xs))
		for i, x := range xs {
			in[i] = int64(x)
		}
		out := make([]int64, len(in))
		total := ScanExclusive(in, out)
		var acc int64
		for i := range in {
			if out[i] != acc {
				return false
			}
			acc += in[i]
		}
		return total == acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScanInPlaceAliasing(t *testing.T) {
	n := 10000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	want := make([]int64, n)
	var acc int64
	for i := range xs {
		want[i] = acc
		acc += xs[i]
	}
	total := ScanExclusive(xs, xs) // aliased
	if total != acc {
		t.Fatalf("total = %d, want %d", total, acc)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("aliased scan wrong at %d: got %d want %d", i, xs[i], want[i])
		}
	}
}

func TestScanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ScanExclusive(make([]int, 3), make([]int, 4))
}

func TestScanFunc(t *testing.T) {
	offsets, total := ScanFunc(5, func(i int) int { return i + 1 })
	want := []int{0, 1, 3, 6, 10}
	for i := range want {
		if offsets[i] != want[i] {
			t.Errorf("offsets[%d] = %d, want %d", i, offsets[i], want[i])
		}
	}
	if total != 15 {
		t.Errorf("total = %d, want 15", total)
	}
}

func TestFilterProperty(t *testing.T) {
	f := func(xs []int16) bool {
		pred := func(x int16) bool { return x%2 == 0 }
		got := Filter(xs, pred)
		var want []int16
		for _, x := range xs {
			if pred(x) {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFilterLarge(t *testing.T) {
	n := 100000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	got := Filter(xs, func(x int) bool { return x%10 == 3 })
	if len(got) != n/10 {
		t.Fatalf("filter kept %d, want %d", len(got), n/10)
	}
	for i, x := range got {
		if x != i*10+3 {
			t.Fatalf("got[%d] = %d, want %d (order violated)", i, x, i*10+3)
		}
	}
}

func TestPackIndex(t *testing.T) {
	n := 65537
	got := PackIndex[uint32](n, func(i int) bool { return i%5 == 0 })
	if len(got) != (n+4)/5 {
		t.Fatalf("pack kept %d, want %d", len(got), (n+4)/5)
	}
	for i, x := range got {
		if x != uint32(i*5) {
			t.Fatalf("got[%d] = %d, want %d", i, x, i*5)
		}
	}
}

func TestFillIotaCopy(t *testing.T) {
	s := make([]int, 12345)
	Fill(s, 7)
	for _, v := range s {
		if v != 7 {
			t.Fatal("Fill missed an element")
		}
	}
	Iota(s, 100)
	for i, v := range s {
		if v != 100+i {
			t.Fatalf("Iota wrong at %d: %d", i, v)
		}
	}
}

func TestMapNew(t *testing.T) {
	got := MapNew(1000, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("MapNew wrong at %d", i)
		}
	}
}

func TestSortFuncMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(1000)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		SortFunc(xs, func(a, b int) bool { return a < b })
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %d, want %d", n, i, xs[i], want[i])
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	type kv struct{ k, idx int }
	n := 50000
	rng := rand.New(rand.NewSource(7))
	xs := make([]kv, n)
	for i := range xs {
		xs[i] = kv{rng.Intn(50), i}
	}
	SortFunc(xs, func(a, b kv) bool { return a.k < b.k })
	for i := 1; i < n; i++ {
		if xs[i-1].k == xs[i].k && xs[i-1].idx > xs[i].idx {
			t.Fatalf("stability violated at %d: (%v) before (%v)", i, xs[i-1], xs[i])
		}
		if xs[i-1].k > xs[i].k {
			t.Fatalf("order violated at %d", i)
		}
	}
}
