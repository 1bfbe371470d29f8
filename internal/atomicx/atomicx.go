// Package atomicx provides the atomic read-modify-write primitives Ligra's
// update functions are written with: compare-and-swap on slice elements,
// priority updates (writeMin), fetch-and-add, and an atomic
// accumulator for float64 values built on CAS of the value's bit pattern.
//
// The priority-update operation (Shun, Blelloch, Fineman, Gibbons, SPAA
// 2013) atomically replaces a memory location's value with a new value only
// if the new value has higher priority (e.g. is smaller), retrying on
// contention. It returns whether the caller's value won, which edgeMap
// update functions use to decide whether the destination joins the output
// frontier exactly once.
package atomicx

import (
	"math"
	"sync/atomic"
)

// CASUint32 atomically replaces *addr with new iff it still holds old.
func CASUint32(addr *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(addr, old, new)
}

// CASInt32 atomically replaces *addr with new iff it still holds old.
func CASInt32(addr *int32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(addr, old, new)
}

// WriteMinInt64 atomically sets *addr = min(*addr, v), reporting whether v
// won.
func WriteMinInt64(addr *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return true
		}
	}
}

// AddInt64 atomically adds delta to *addr and returns the new value.
func AddInt64(addr *int64, delta int64) int64 {
	return atomic.AddInt64(addr, delta)
}

// OrUint64 atomically ORs mask into *addr and returns the previous value.
// The plain-load fast path skips the locked instruction when every mask
// bit is already set — the common case for visit-word propagation, where
// most edges deliver bits a hub has already received.
func OrUint64(addr *uint64, mask uint64) uint64 {
	if old := atomic.LoadUint64(addr); old|mask == old {
		return old
	}
	return atomic.OrUint64(addr, mask)
}

// Float64Slice is a slice of float64 values supporting atomic addition and
// atomic writes. Values are stored as their IEEE-754 bit patterns in uint64
// words so the standard atomic CAS applies; this avoids unsafe pointer
// casts.
type Float64Slice struct {
	bits []uint64
}

// NewFloat64Slice returns a Float64Slice of length n, all zeros.
func NewFloat64Slice(n int) *Float64Slice {
	return &Float64Slice{bits: make([]uint64, n)}
}

// Len returns the number of elements.
func (f *Float64Slice) Len() int { return len(f.bits) }

// Load atomically reads element i.
func (f *Float64Slice) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&f.bits[i]))
}

// Store atomically writes element i.
func (f *Float64Slice) Store(i int, v float64) {
	atomic.StoreUint64(&f.bits[i], math.Float64bits(v))
}

// Add atomically adds delta to element i, returning the new value. It
// retries on contention (CAS loop over the bit pattern).
func (f *Float64Slice) Add(i int, delta float64) float64 {
	addr := &f.bits[i]
	for {
		oldBits := atomic.LoadUint64(addr)
		newVal := math.Float64frombits(oldBits) + delta
		if atomic.CompareAndSwapUint64(addr, oldBits, math.Float64bits(newVal)) {
			return newVal
		}
	}
}

// StoreNonAtomic writes element i without synchronization. Valid only when
// the caller guarantees exclusive access (e.g. dense pull traversals with a
// single writer per destination, or sequential phases).
func (f *Float64Slice) StoreNonAtomic(i int, v float64) {
	f.bits[i] = math.Float64bits(v)
}

// LoadNonAtomic reads element i without synchronization; see StoreNonAtomic.
func (f *Float64Slice) LoadNonAtomic(i int) float64 {
	return math.Float64frombits(f.bits[i])
}

// NonAtomicBits returns the elements' IEEE-754 bit patterns in place, for
// a loop that reads them without synchronization; see StoreNonAtomic.
func (f *Float64Slice) NonAtomicBits() []uint64 { return f.bits }

// Fill sets every element to v (not atomic with respect to concurrent
// mutators; intended for initialization between phases).
func (f *Float64Slice) Fill(v float64) {
	b := math.Float64bits(v)
	for i := range f.bits {
		f.bits[i] = b
	}
}

// ToSlice copies the current values into a plain []float64.
func (f *Float64Slice) ToSlice() []float64 {
	out := make([]float64, len(f.bits))
	for i := range f.bits {
		out[i] = math.Float64frombits(f.bits[i])
	}
	return out
}
