// Package hashtable implements a phase-concurrent, history-independent
// hash set for 32-bit keys after Shun and Blelloch (SPAA 2014): within an
// insert phase, any number of goroutines may insert concurrently, and the
// final memory layout depends only on the *set* of keys, not on insertion
// order or interleaving — the linear-probing chains are kept sorted by
// priority and inserts displace lower-priority keys, so the table is
// deterministic. Reads (Contains, Elements) form a separate phase and
// must not overlap inserts.
//
// It is a substrate of the Ligra research line; edgeMap's own duplicate
// removal is the paper's CAS-claimed array of size |V| (core's
// removeDuplicates), not this set.
package hashtable

import (
	"sync"
	"sync/atomic"

	"ligra/internal/parallel"
)

// empty marks an unoccupied slot. The sentinel key ^uint32(0) is
// therefore not insertable; Ligra uses the same value as its "no vertex"
// sentinel, so this costs nothing in practice.
const empty = ^uint32(0)

// Set is a phase-concurrent hash set of uint32 keys. It starts at the
// capacity given to NewSet and grows (doubling and rehashing) when an
// insert exhausts its probe budget, so Insert never fails on an
// undersized initial estimate.
type Set struct {
	// mu is held shared by inserters and exclusively by growth: a grow
	// must observe no in-flight probe sequences, since it swaps out the
	// slot array those sequences walk.
	mu    sync.RWMutex
	slots []uint32
	mask  uint32
}

// NewSet returns a set sized for capacity keys with a load factor of at
// most 1/2 (the table size is the next power of two of 2*capacity); the
// table grows automatically if more keys arrive.
func NewSet(capacity int) *Set {
	if capacity < 1 {
		capacity = 1
	}
	size := 4
	for size < 2*capacity {
		size <<= 1
	}
	s := &Set{slots: make([]uint32, size), mask: uint32(size - 1)}
	for i := range s.slots {
		s.slots[i] = empty
	}
	return s
}

// hash32 is a strong 32-bit mixer (finalizer of MurmurHash3).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85EBCA6B
	x ^= x >> 13
	x *= 0xC2B2AE35
	x ^= x >> 16
	return x
}

// priorityAt orders keys along a probe chain of a table with the given
// mask: primarily by hash position, then by key value. Chains hold keys
// in decreasing priority starting at their home slot, which is what makes
// the layout history-independent.
func priorityAt(mask, k uint32) uint64 {
	return uint64(hash32(k)&mask)<<32 | uint64(k)
}

func (s *Set) priority(k uint32) uint64 { return priorityAt(s.mask, k) }

// Insert adds k to the set, returning true if k was absent. Safe to call
// concurrently with other Inserts (but not with reads). k must not be the
// reserved sentinel ^uint32(0). If the table is too loaded to place the
// key within its probe budget it grows (doubling and rehashing) and
// retries instead of failing.
//
// A key an insert has displaced is out of the table until that insert
// re-homes it. A concurrent Insert of the same key in that window places
// its own copy and reports true; the displacing call later meets the copy,
// drops the one it carries and reports false. The true returns therefore
// sum to the number of keys added — what concurrent callers count — even
// when one racing call answers for another.
func (s *Set) Insert(k uint32) bool {
	if k == empty {
		panic("hashtable: cannot insert the reserved sentinel key")
	}
	// A pass cut short by a full table hands back the key it was carrying
	// (k itself, or one k displaced); growth makes room and the next pass
	// re-homes it.
	for {
		s.mu.RLock()
		size := len(s.slots)
		placed, carry, full := s.tryInsert(k)
		s.mu.RUnlock()
		if !full {
			return placed
		}
		k = carry
		s.grow(size)
	}
}

// tryInsert runs one ordered-linear-probing pass for k under a read lock.
// It returns (inserted, carried key, false) on completion, or
// (_, key still needing placement, true) when the probe budget is
// exhausted — the carried key has been *removed* from the table by a
// displacement and must be re-inserted after growth.
func (s *Set) tryInsert(k uint32) (bool, uint32, bool) {
	i := hash32(k) & s.mask
	pk := s.priority(k)
	for probes := 0; probes <= len(s.slots); probes++ {
		cur := atomic.LoadUint32(&s.slots[i])
		switch {
		case cur == k:
			return false, k, false
		case cur == empty:
			if atomic.CompareAndSwapUint32(&s.slots[i], empty, k) {
				return true, k, false
			}
			// Lost the race; re-examine the same slot.
			probes--
			continue
		case s.priority(cur) < pk:
			// k has higher priority: displace cur and keep inserting it
			// further down the chain (ordered linear probing).
			if atomic.CompareAndSwapUint32(&s.slots[i], cur, k) {
				k = cur
				pk = s.priority(k)
			}
			// On CAS failure re-examine the same slot with the new value.
			probes--
			continue
		}
		i = (i + 1) & s.mask
	}
	return false, k, true
}

// grow doubles the table observed at oldSize and rehashes every key. It
// no-ops if another goroutine already grew past oldSize while this one
// waited for the write lock, so concurrent inserters hitting a full table
// trigger exactly one doubling between them.
func (s *Set) grow(oldSize int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slots) != oldSize {
		return
	}
	newSize := 2 * oldSize
	newSlots := make([]uint32, newSize)
	for i := range newSlots {
		newSlots[i] = empty
	}
	newMask := uint32(newSize - 1)
	for _, k := range s.slots {
		if k != empty {
			insertSeq(newSlots, newMask, k)
		}
	}
	s.slots, s.mask = newSlots, newMask
}

// insertSeq is the sequential (single-writer) ordered-probing insert used
// during rehash; the target table is private so no atomics are needed and
// it can never be full (rehash at most halves the load factor).
func insertSeq(slots []uint32, mask, k uint32) {
	i := hash32(k) & mask
	pk := priorityAt(mask, k)
	for {
		cur := slots[i]
		if cur == k {
			return
		}
		if cur == empty {
			slots[i] = k
			return
		}
		if priorityAt(mask, cur) < pk {
			slots[i], k = k, cur
			pk = priorityAt(mask, k)
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether k is in the set. Must not run concurrently
// with Insert.
func (s *Set) Contains(k uint32) bool {
	if k == empty {
		return false
	}
	i := hash32(k) & s.mask
	pk := s.priority(k)
	for probes := 0; probes <= len(s.slots); probes++ {
		cur := s.slots[i]
		if cur == k {
			return true
		}
		// Chains are sorted by decreasing priority: once we pass k's
		// priority position (or hit an empty slot) it cannot appear later.
		if cur == empty || s.priority(cur) < pk {
			return false
		}
		i = (i + 1) & s.mask
	}
	return false
}

// Len returns the number of keys stored (a scan; phase-safe with reads).
func (s *Set) Len() int {
	return parallel.CountFunc(len(s.slots), func(i int) bool {
		return s.slots[i] != empty
	})
}

// Elements returns the stored keys, packed in slot order. Because the
// layout is history-independent, the returned order is deterministic for
// a given key set regardless of how it was inserted. Must not run
// concurrently with Insert.
func (s *Set) Elements() []uint32 {
	return parallel.Filter(s.slots, func(k uint32) bool { return k != empty })
}

// Reset clears the set for reuse (sequential).
func (s *Set) Reset() {
	parallel.Fill(s.slots, empty)
}

// TableSize returns the number of slots (for tests and sizing analysis).
func (s *Set) TableSize() int { return len(s.slots) }
