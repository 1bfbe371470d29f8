package bitset

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	b := New(200)
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d clear after Set", i)
		}
	}
	if b.Get(62) || b.Get(66) {
		t.Error("Set disturbed neighboring bits")
	}
}

func TestCount(t *testing.T) {
	b := New(1000)
	for i := 0; i < 1000; i += 3 {
		b.Set(i)
	}
	if got, want := b.Count(), (1000+2)/3; got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestSetAtomicSemantics(t *testing.T) {
	b := New(64)
	if !b.SetAtomic(10) {
		t.Error("first SetAtomic should report a change")
	}
	if b.SetAtomic(10) {
		t.Error("second SetAtomic should report no change")
	}
	if !b.Get(10) {
		t.Error("bit not set")
	}
}

func TestSetAtomicConcurrent(t *testing.T) {
	const n = 10000
	b := New(n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < n; i++ {
				if b.SetAtomic(i) {
					local++
				}
			}
			mu.Lock()
			wins += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if wins != n {
		t.Errorf("total wins %d, want %d (each bit claimed once)", wins, n)
	}
	if b.Count() != n {
		t.Errorf("Count = %d, want %d", b.Count(), n)
	}
}

// TestGetAtomicConcurrent reads bits while other goroutines set them, the
// pattern of a traversal's Cond beside its SetAtomic update; run it under
// -race. A bit seen set stays set, and every bit reads set at the end.
func TestGetAtomicConcurrent(t *testing.T) {
	const n = 10000
	b := New(n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				b.SetAtomic(i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.GetAtomic(i) && !b.GetAtomic(i) {
					t.Errorf("bit %d cleared after it was seen set", i)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !b.GetAtomic(i) {
			t.Fatalf("bit %d clear after every SetAtomic returned", i)
		}
	}
}

func TestForEachSet(t *testing.T) {
	b := New(300)
	want := []int{0, 5, 63, 64, 128, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEachSet visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %d, want %d (must be increasing)", i, got[i], want[i])
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(99)
	b.CopyFrom(a)
	if !b.Get(3) || !b.Get(99) || b.Count() != 2 {
		t.Error("CopyFrom incomplete")
	}
	b.Set(50)
	if a.Get(50) {
		t.Error("CopyFrom aliased the backing array")
	}
}

func TestCopyFromSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	New(10).CopyFrom(New(11))
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	New(-1)
}

func TestBitsetMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 512
		b := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch op % 2 {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				if b.Get(i) != model[i] {
					return false
				}
			}
		}
		return b.Count() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWordsExposed(t *testing.T) {
	b := New(128)
	b.Set(0)
	b.Set(64)
	w := b.Words()
	if len(w) != 2 || w[0] != 1 || w[1] != 1 {
		t.Errorf("Words = %v", w)
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := New(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Count() = %d after SetAll", n, got)
		}
		for i := 0; i < n; i++ {
			if !b.Get(i) {
				t.Fatalf("n=%d: bit %d clear after SetAll", n, i)
			}
		}
		// The tail-word invariant must hold: bits beyond Len stay zero so
		// word-at-a-time consumers (popcounts, packs) see no phantom members.
		if words := b.Words(); len(words) > 0 {
			if tail := uint(n % 64); tail != 0 {
				if words[len(words)-1]>>tail != 0 {
					t.Fatalf("n=%d: bits beyond Len set in final word", n)
				}
			}
		}
	}
}
