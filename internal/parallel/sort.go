package parallel

import (
	"cmp"
	"context"
)

// sortSequentialCutoff is the size below which subtrees are sorted
// sequentially rather than forked.
const sortSequentialCutoff = 4096

// insertionCutoff is the size below which insertion sort is used.
const insertionCutoff = 24

// SortFunc stably sorts s in place using the strict weak ordering less.
// Large inputs are sorted by a parallel merge sort over ctx's workers; the
// sequential base is a buffered merge sort with an insertion-sort leaf,
// implemented directly on the generic element type (no reflection, unlike
// sort.SliceStable, which matters for the edge-array sorts that dominate
// graph building).
func SortFunc[T any](ctx context.Context, s []T, less func(a, b T) bool) error {
	return parMergeSort(ctx, s, make([]T, len(s)), less, CtxProcs(ctx))
}

// insertionSort is the stable leaf sort.
func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && less(v, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

// seqMergeSort stably sorts s using buf (same length) as scratch.
func seqMergeSort[T any](s, buf []T, less func(a, b T) bool) {
	if len(s) <= insertionCutoff {
		insertionSort(s, less)
		return
	}
	mid := len(s) / 2
	seqMergeSort(s[:mid], buf[:mid], less)
	seqMergeSort(s[mid:], buf[mid:], less)
	if !less(s[mid], s[mid-1]) {
		return // already in order
	}
	merge(s[:mid], s[mid:], buf, less)
	copy(s, buf)
}

// parMergeSort sorts s using buf as scratch; procs bounds the remaining
// parallelism budget for this subtree.
func parMergeSort[T any](ctx context.Context, s, buf []T, less func(a, b T) bool, procs int) error {
	if len(s) < sortSequentialCutoff || procs <= 1 {
		return sequential(ctx, func() { seqMergeSort(s, buf, less) })
	}
	mid := len(s) / 2
	var errLo, errHi error
	if err := do(ctx,
		func() { errLo = parMergeSort(ctx, s[:mid], buf[:mid], less, procs/2) },
		func() { errHi = parMergeSort(ctx, s[mid:], buf[mid:], less, procs-procs/2) },
	); err != nil {
		return err
	}
	if err := cmp.Or(errLo, errHi); err != nil {
		return err
	}
	if !less(s[mid], s[mid-1]) {
		return nil
	}
	merge(s[:mid], s[mid:], buf, less)
	copy(s, buf)
	return nil
}

// merge merges sorted a and b into out (len(out) == len(a)+len(b)),
// preferring elements of a on ties, which keeps the sort stable.
func merge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}
