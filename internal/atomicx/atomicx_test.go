package atomicx

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteMinUint32Sequential(t *testing.T) {
	x := uint32(100)
	if !WriteMinUint32(&x, 50) || x != 50 {
		t.Errorf("writeMin(100, 50): won=%v x=%d", x == 50, x)
	}
	if WriteMinUint32(&x, 50) {
		t.Error("writeMin with equal value should not win")
	}
	if WriteMinUint32(&x, 70) || x != 50 {
		t.Errorf("writeMin(50, 70) changed value to %d", x)
	}
}

func TestWriteMinConcurrentConverges(t *testing.T) {
	const goroutines = 16
	const perG = 1000
	x := uint32(math.MaxUint32)
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := int32(0)
			for i := 0; i < perG; i++ {
				v := uint32(g*perG + i)
				if WriteMinUint32(&x, v) {
					local++
				}
			}
			mu.Lock()
			wins += local
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if x != 0 {
		t.Errorf("final value %d, want 0", x)
	}
	// The global minimum always wins exactly once; every observed win must
	// have strictly decreased the value, so wins <= number of distinct
	// values and >= 1.
	if wins < 1 {
		t.Errorf("wins = %d, want >= 1", wins)
	}
}

func TestWriteMinInt64(t *testing.T) {
	x := int64(10)
	if !WriteMinInt64(&x, -5) || x != -5 {
		t.Errorf("writeMin int64 failed: x=%d", x)
	}
	if WriteMinInt64(&x, 0) {
		t.Error("writeMin should not raise value")
	}
}

func TestCASHelpers(t *testing.T) {
	u32 := uint32(1)
	if !CASUint32(&u32, 1, 2) || u32 != 2 {
		t.Error("CASUint32 success path failed")
	}
	if CASUint32(&u32, 1, 3) {
		t.Error("CASUint32 should fail on stale old")
	}
	i32 := int32(-1)
	if !CASInt32(&i32, -1, 7) || i32 != 7 {
		t.Error("CASInt32 failed")
	}
}

func TestAddHelpers(t *testing.T) {
	var x int64
	if AddInt64(&x, 5) != 5 || AddInt64(&x, -2) != 3 {
		t.Error("AddInt64 wrong")
	}
	var u uint32
	if AddUint32(&u, 7) != 7 {
		t.Error("AddUint32 wrong")
	}
}

func TestOrUint64(t *testing.T) {
	var x uint64
	if old := OrUint64(&x, 0b101); old != 0 || x != 0b101 {
		t.Errorf("OrUint64: old=%b x=%b", old, x)
	}
	if old := OrUint64(&x, 0b100); old != 0b101 || x != 0b101 {
		t.Errorf("OrUint64 no-op case: old=%b x=%b", old, x)
	}
	if old := OrUint64(&x, 0b010); old != 0b101 || x != 0b111 {
		t.Errorf("OrUint64 merge: old=%b x=%b", old, x)
	}
}

func TestOrUint64Concurrent(t *testing.T) {
	var x uint64
	var wg sync.WaitGroup
	for b := 0; b < 64; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			OrUint64(&x, 1<<uint(b))
		}(b)
	}
	wg.Wait()
	if x != ^uint64(0) {
		t.Errorf("concurrent OR produced %b", x)
	}
}

func TestTestAndSetBool(t *testing.T) {
	var f uint32
	if !TestAndSetBool(&f) {
		t.Error("first TAS should win")
	}
	if TestAndSetBool(&f) {
		t.Error("second TAS should lose")
	}
}

func TestTestAndSetBoolConcurrent(t *testing.T) {
	var f uint32
	var wins int32
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if TestAndSetBool(&f) {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Errorf("TAS wins = %d, want exactly 1", wins)
	}
}

func TestFloat64SliceBasics(t *testing.T) {
	fs := NewFloat64Slice(4)
	if fs.Len() != 4 {
		t.Fatalf("Len = %d", fs.Len())
	}
	fs.Store(0, 1.5)
	if got := fs.Load(0); got != 1.5 {
		t.Errorf("Load = %v", got)
	}
	fs.Add(0, 2.5)
	if got := fs.Load(0); got != 4.0 {
		t.Errorf("after Add, Load = %v", got)
	}
	fs.StoreNonAtomic(1, -1)
	fs.AddNonAtomic(1, 0.5)
	if got := fs.LoadNonAtomic(1); got != -0.5 {
		t.Errorf("non-atomic path = %v", got)
	}
	fs.Fill(3)
	for i := 0; i < 4; i++ {
		if fs.Load(i) != 3 {
			t.Errorf("Fill missed index %d", i)
		}
	}
	s := fs.ToSlice()
	if len(s) != 4 || s[2] != 3 {
		t.Errorf("ToSlice = %v", s)
	}
}

func TestFloat64SliceConcurrentAdd(t *testing.T) {
	fs := NewFloat64Slice(1)
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fs.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := fs.Load(0); got != float64(goroutines*perG) {
		t.Errorf("concurrent adds lost updates: %v, want %v", got, goroutines*perG)
	}
}

func TestFloat64SliceAddProperty(t *testing.T) {
	f := func(vals []float64) bool {
		fs := NewFloat64Slice(1)
		var want float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			fs.Add(0, v)
			want += v
		}
		return fs.Load(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
