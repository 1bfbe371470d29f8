// Package bitset provides fixed-size bit vectors with both sequential and
// atomic (concurrent) mutation, used for dense frontier flags and for the
// 64-way concurrent BFS bit vectors of Ligra's radii-estimation application.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-capacity vector of bits backed by uint64 words.
// The zero value is unusable; construct with New.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a Bitset holding n bits, all clear.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i (not atomic).
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports bit i (not atomic).
func (b *Bitset) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// GetAtomic reports bit i with an atomic load, for reads that race with
// SetAtomic on the same word.
func (b *Bitset) GetAtomic(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// SetAtomic atomically sets bit i and reports whether this call changed it
// from 0 to 1 (test-and-set semantics).
func (b *Bitset) SetAtomic(i int) bool {
	addr := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll sets every bit in [0, Len()), one word at a time, preserving the
// invariant that bits beyond Len in the final word stay zero.
func (b *Bitset) SetAll() {
	if len(b.words) == 0 {
		return
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := uint(b.n % wordBits); tail != 0 {
		b.words[len(b.words)-1] = (1 << tail) - 1
	}
}

// CopyFrom copies the contents of src (which must have the same length).
func (b *Bitset) CopyFrom(src *Bitset) {
	if b.n != src.n {
		panic("bitset: CopyFrom size mismatch")
	}
	copy(b.words, src.words)
}

// ForEachSet calls fn for every set bit index in increasing order.
func (b *Bitset) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*wordBits + bit)
			w &= w - 1
		}
	}
}

// Words exposes the backing words for bulk bitwise operations (e.g. the
// radii application ORs whole visit vectors). The final word's bits beyond
// Len are always zero provided callers only use Set/SetAtomic with valid
// indices.
func (b *Bitset) Words() []uint64 { return b.words }
