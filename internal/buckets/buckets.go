// Package buckets implements the bucketing interface of Julienne
// (Dhulipala, Blelloch, Shun, SPAA 2017), the follow-on framework that
// extends Ligra with a dynamic mapping from vertices to ordered buckets.
// Bucketing-based algorithms (k-core peeling by remaining degree,
// delta-stepping by tentative distance) repeatedly extract the smallest
// non-empty bucket, process its vertices with edgeMap, and move affected
// vertices to new buckets.
//
// This implementation uses lazy buckets: moves append the vertex to its
// target bucket's pending list, and entries are validated against the
// authoritative per-vertex bucket ID when the bucket is opened, so stale
// entries (vertices moved again before their bucket was processed) cost
// only the validation scan. Vertices are returned exactly once: opening a
// bucket retires its members.
package buckets

import "sort"

// Finished marks a vertex with no bucket (retired or never bucketed).
const Finished = int64(-1)

// Buckets maps vertices to ordered int64 bucket IDs.
type Buckets struct {
	bucketOf []int64            // authoritative bucket per vertex
	pending  map[int64][]uint32 // lazy membership lists (may hold stale entries)
}

// New creates a bucket structure over n vertices, assigning vertex v to
// initial(v) (return Finished to leave a vertex out).
func New(n int, initial func(v uint32) int64) *Buckets {
	b := &Buckets{
		bucketOf: make([]int64, n),
		pending:  make(map[int64][]uint32),
	}
	for v := 0; v < n; v++ {
		id := initial(uint32(v))
		b.bucketOf[v] = id
		if id != Finished {
			b.pending[id] = append(b.pending[id], uint32(v))
		}
	}
	return b
}

// Bucket returns the current bucket of v (Finished if retired).
func (b *Buckets) Bucket(v uint32) int64 { return b.bucketOf[v] }

// Update moves v to the given bucket (Finished retires it without
// processing). Must not run concurrently with other Buckets methods; the
// intended pattern is to collect moves from an edgeMap output frontier
// and apply them between rounds, as UpdateMany does.
func (b *Buckets) Update(v uint32, bucket int64) {
	b.bucketOf[v] = bucket
	if bucket != Finished {
		b.pending[bucket] = append(b.pending[bucket], v)
	}
}

// UpdateMany applies Update(v, bucket(v)) for every vertex of vs.
func (b *Buckets) UpdateMany(vs []uint32, bucket func(v uint32) int64) {
	for _, v := range vs {
		b.Update(v, bucket(v))
	}
}

// Next opens the smallest non-empty bucket: it returns the bucket ID and
// its current members (validated and deduplicated), retiring them
// (their bucket becomes Finished). ok is false when no vertices remain.
func (b *Buckets) Next() (id int64, members []uint32, ok bool) {
	for len(b.pending) > 0 {
		// Smallest pending bucket.
		first := true
		for k := range b.pending {
			if first || k < id {
				id = k
				first = false
			}
		}
		entries := b.pending[id]
		delete(b.pending, id)
		// Validate: keep vertices whose authoritative bucket is still id.
		// bucketOf also dedups: the first kept occurrence retires v.
		members = members[:0]
		for _, v := range entries {
			if b.bucketOf[v] == id {
				b.bucketOf[v] = Finished
				members = append(members, v)
			}
		}
		if len(members) > 0 {
			return id, members, true
		}
	}
	return 0, nil, false
}

// Remaining returns the number of vertices that still belong to some
// bucket (retired vertices excluded) — diagnostic/testing helper.
func (b *Buckets) Remaining() int {
	count := 0
	for _, id := range b.bucketOf {
		if id != Finished {
			count++
		}
	}
	return count
}

// NonEmptyBuckets returns the sorted list of bucket IDs with at least one
// valid member — diagnostic/testing helper.
func (b *Buckets) NonEmptyBuckets() []int64 {
	seen := map[int64]bool{}
	for _, id := range b.bucketOf {
		if id != Finished {
			seen[id] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
