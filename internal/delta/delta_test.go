package delta

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ligra/internal/compress"
	"ligra/internal/gen"
	"ligra/internal/graph"
)

// edgeKey identifies a directed edge.
type edgeKey struct{ s, d uint32 }

// refGraph is an oracle edge-set the tests mutate alongside a Store.
type refGraph struct {
	n         int
	symmetric bool
	weighted  bool
	edges     map[edgeKey]int32 // directed presence (both dirs for symmetric)
}

func newRef(v graph.View) *refGraph {
	r := &refGraph{
		n:         v.NumVertices(),
		symmetric: v.Symmetric(),
		weighted:  v.Weighted(),
		edges:     make(map[edgeKey]int32),
	}
	for s := 0; s < r.n; s++ {
		v.OutNeighbors(uint32(s), func(d uint32, w int32) bool {
			r.edges[edgeKey{uint32(s), d}] = w
			return true
		})
	}
	return r
}

// apply mirrors the documented /update semantics onto the oracle.
func (r *refGraph) apply(ops []EdgeOp) {
	do := func(s, d uint32, w int32, del bool) {
		k := edgeKey{s, d}
		_, present := r.edges[k]
		if del {
			if present {
				delete(r.edges, k)
			}
			return
		}
		if !present {
			if !r.weighted {
				w = 1
			}
			r.edges[k] = w
		}
	}
	for _, op := range ops {
		do(op.Src, op.Dst, op.Weight, op.Del)
		if r.symmetric {
			do(op.Dst, op.Src, op.Weight, op.Del)
		}
		if int(op.Src) >= r.n {
			r.n = int(op.Src) + 1
		}
		if int(op.Dst) >= r.n {
			r.n = int(op.Dst) + 1
		}
	}
}

// assertViewMatches checks v against the oracle row by row.
func assertViewMatches(t *testing.T, v graph.View, r *refGraph) {
	t.Helper()
	if v.NumVertices() != r.n {
		t.Fatalf("NumVertices = %d, oracle %d", v.NumVertices(), r.n)
	}
	if v.NumEdges() != int64(len(r.edges)) {
		t.Fatalf("NumEdges = %d, oracle %d", v.NumEdges(), len(r.edges))
	}
	inSeen := make(map[edgeKey]int32)
	for s := 0; s < r.n; s++ {
		var lastD int64 = -1
		deg := 0
		v.OutNeighbors(uint32(s), func(d uint32, w int32) bool {
			deg++
			if int64(d) <= lastD {
				// Overlay rows promise sorted, deduplicated targets;
				// base CSR rows from the builders are sorted too.
				t.Fatalf("row %d not strictly ascending at %d", s, d)
			}
			lastD = int64(d)
			want, ok := r.edges[edgeKey{uint32(s), d}]
			if !ok {
				t.Fatalf("edge %d->%d present in view, absent in oracle", s, d)
			}
			if r.weighted && w != want {
				t.Fatalf("edge %d->%d weight %d, oracle %d", s, d, w, want)
			}
			return true
		})
		if deg != v.OutDegree(uint32(s)) {
			t.Fatalf("vertex %d: OutDegree %d but iterated %d", s, v.OutDegree(uint32(s)), deg)
		}
		v.InNeighbors(uint32(s), func(src uint32, w int32) bool {
			inSeen[edgeKey{src, uint32(s)}] = w
			return true
		})
		if v.InDegree(uint32(s)) != inDegreeOracle(r, uint32(s)) {
			t.Fatalf("vertex %d: InDegree %d, oracle %d", s, v.InDegree(uint32(s)), inDegreeOracle(r, uint32(s)))
		}
	}
	if len(inSeen) != len(r.edges) {
		t.Fatalf("in-edge iteration saw %d edges, oracle %d", len(inSeen), len(r.edges))
	}
	for k, w := range inSeen {
		want, ok := r.edges[k]
		if !ok {
			t.Fatalf("in-edge %v absent in oracle", k)
		}
		if r.weighted && w != want {
			t.Fatalf("in-edge %v weight %d, oracle %d", k, w, want)
		}
	}
}

func inDegreeOracle(r *refGraph, v uint32) int {
	c := 0
	for k := range r.edges {
		if k.d == v {
			c++
		}
	}
	return c
}

func mustRMAT(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(scale, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomOps draws a mix of inserts (random endpoints, may already
// exist) and deletes (half targeting real edges, half random misses).
func randomOps(rng *rand.Rand, v graph.View, count int) []EdgeOp {
	n := v.NumVertices()
	ops := make([]EdgeOp, 0, count)
	for len(ops) < count {
		s := uint32(rng.Intn(n))
		d := uint32(rng.Intn(n))
		if s == d {
			continue
		}
		switch rng.Intn(4) {
		case 0, 1: // insert
			ops = append(ops, EdgeOp{Src: s, Dst: d, Weight: int32(rng.Intn(100) + 1)})
		case 2: // delete an edge that likely exists
			if deg := v.OutDegree(s); deg > 0 {
				i, j := 0, rng.Intn(deg)
				v.OutNeighbors(s, func(dd uint32, _ int32) bool {
					if i == j {
						d = dd
						return false
					}
					i++
					return true
				})
				if s != d {
					ops = append(ops, EdgeOp{Src: s, Dst: d, Del: true})
				}
			}
		case 3: // delete, probably missing (must be a counted no-op)
			ops = append(ops, EdgeOp{Src: s, Dst: d, Del: true})
		}
	}
	return ops
}

func TestApplyMatchesOracleSymmetric(t *testing.T) {
	g := mustRMAT(t, 8)
	st := NewStore(g, Config{InitialVersion: 1})
	ref := newRef(g)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 6; round++ {
		cur, _ := st.Current()
		ops := randomOps(rng, cur, 200)
		res, err := st.Update(context.Background(), ops)
		if err != nil {
			t.Fatal(err)
		}
		ref.apply(ops)
		cur, ver := st.Current()
		if res.Version != ver {
			t.Fatalf("result version %d, store version %d", res.Version, ver)
		}
		assertViewMatches(t, cur, ref)
	}
}

func TestApplyMatchesOracleDirected(t *testing.T) {
	g, err := gen.RMATDirected(8, 8, gen.PBBSRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(g, Config{InitialVersion: 1})
	ref := newRef(g)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 6; round++ {
		cur, _ := st.Current()
		ops := randomOps(rng, cur, 150)
		if _, err := st.Update(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		ref.apply(ops)
		cur, _ = st.Current()
		assertViewMatches(t, cur, ref)
	}
}

func TestApplyWeighted(t *testing.T) {
	g := mustRMAT(t, 6).AddWeights(graph.HashWeight(50))
	st := NewStore(g, Config{InitialVersion: 1})
	ref := newRef(g)
	ops := []EdgeOp{
		{Src: 0, Dst: uint32(g.NumVertices() - 1), Weight: 7},
		{Src: 1, Dst: uint32(g.NumVertices() - 2), Weight: 9},
	}
	if _, err := st.Update(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	ref.apply(ops)
	cur, _ := st.Current()
	assertViewMatches(t, cur, ref)
	if !cur.Weighted() {
		t.Fatal("overlay dropped Weighted")
	}
}

func TestVertexGrowth(t *testing.T) {
	g := mustRMAT(t, 6)
	n0 := g.NumVertices()
	st := NewStore(g, Config{InitialVersion: 1})
	ref := newRef(g)
	ops := []EdgeOp{{Src: 3, Dst: uint32(n0 + 5)}}
	res, err := st.Update(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != n0+6 {
		t.Fatalf("vertices = %d, want %d", res.Vertices, n0+6)
	}
	ref.apply(ops)
	cur, _ := st.Current()
	assertViewMatches(t, cur, ref)
	if got := cur.OutDegree(uint32(n0 + 5)); got != 1 {
		t.Fatalf("new vertex out-degree %d, want 1 (symmetric reverse edge)", got)
	}
}

func TestNoOpBatchSpendsNoVersion(t *testing.T) {
	g := mustRMAT(t, 6)
	st := NewStore(g, Config{InitialVersion: 5})
	// An edge that exists (insert must be ignored) and one that does not
	// (delete must be ignored).
	var have EdgeOp
	g.OutNeighbors(0, func(d uint32, _ int32) bool {
		have = EdgeOp{Src: 0, Dst: d}
		return false
	})
	adj := make(map[uint32]bool)
	g.OutNeighbors(1, func(d uint32, _ int32) bool { adj[d] = true; return true })
	miss := EdgeOp{Del: true}
	for d := uint32(0); int(d) < g.NumVertices(); d++ {
		if d != 1 && !adj[d] {
			miss.Src, miss.Dst = 1, d
			break
		}
	}
	res, err := st.Update(context.Background(), []EdgeOp{have, miss})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 0 {
		t.Fatalf("no-op batch counted effective ops: %+v", res)
	}
	if res.Ignored == 0 {
		t.Fatalf("expected ignored ops, got %+v", res)
	}
	if res.Version != 5 {
		t.Fatalf("pure no-op batch bumped version to %d", res.Version)
	}
	if _, ver := st.Current(); ver != 5 {
		t.Fatalf("store version moved to %d on a no-op batch", ver)
	}
}

func TestValidateOps(t *testing.T) {
	if err := ValidateOps([]EdgeOp{{Src: 4, Dst: 4}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := ValidateOps([]EdgeOp{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeEqualsOverlay(t *testing.T) {
	g := mustRMAT(t, 8)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{CompactEvery: -1}})
	ref := newRef(g)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		cur, _ := st.Current()
		ops := randomOps(rng, cur, 300)
		if _, err := st.Update(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		ref.apply(ops)
	}
	cur, _ := st.Current()
	if asOverlay(cur) == nil {
		t.Fatalf("expected overlay with compaction off, got %T", cur)
	}
	csr, err := Materialize(cur)
	if err != nil {
		t.Fatal(err)
	}
	assertViewMatches(t, csr, ref)
}

func TestCompactionTriggers(t *testing.T) {
	g := mustRMAT(t, 8)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{CompactEvery: 50}})
	ref := newRef(g)
	rng := rand.New(rand.NewSource(5))
	cur, _ := st.Current()
	ops := randomOps(rng, cur, 200)
	res, err := st.Update(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("expected compaction at churn>=50: %+v", res)
	}
	if st.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d", st.Stats().Compactions)
	}
	ref.apply(ops)
	cur, _ = st.Current()
	if _, ok := cur.(*graph.Graph); !ok {
		t.Fatalf("expected materialized CSR after compaction, got %T", cur)
	}
	assertViewMatches(t, cur, ref)
}

func TestGroupCommitCoalesces(t *testing.T) {
	g := mustRMAT(t, 6)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{Window: 30 * time.Millisecond}})
	const writers = 8
	results := make(chan ApplyResult, writers)
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			res, err := st.Update(context.Background(),
				[]EdgeOp{{Src: uint32(i), Dst: uint32(i + 100)}})
			results <- res
			errs <- err
		}(i)
	}
	versions := make(map[uint64]int)
	batched := 0
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		res := <-results
		versions[res.Version]++
		if res.Requests > batched {
			batched = res.Requests
		}
	}
	if len(versions) == writers {
		t.Fatalf("no coalescing: %d distinct versions for %d concurrent writers", len(versions), writers)
	}
	if batched < 2 {
		t.Fatalf("expected at least one multi-request commit, max requests_batched = %d", batched)
	}
}

func TestUpdateBacklogRejects(t *testing.T) {
	g := mustRMAT(t, 6)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{Window: 100 * time.Millisecond, MaxPending: 3}})
	// Two writers each push 2-op batches: whichever arrives while the
	// other's group-commit window is open exceeds MaxPending=3 and must
	// be turned away with ErrBusy.
	busy := make(chan struct{}, 2)
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func(w int) {
			base := uint32(200 + 10*w)
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := st.Update(context.Background(),
					[]EdgeOp{{Src: uint32(w), Dst: base + i%8}, {Src: uint32(w), Dst: base + i%8, Del: true}})
				if errors.Is(err, ErrBusy) {
					busy <- struct{}{}
					return
				}
			}
		}(w)
	}
	select {
	case <-busy:
	case <-time.After(10 * time.Second):
		t.Fatal("backlog never rejected with ErrBusy")
	}
	close(stop)
	if st.Stats().Rejected == 0 {
		t.Fatal("Rejected counter not bumped")
	}
}

func TestStorePinKeepsMmapAlive(t *testing.T) {
	g := mustRMAT(t, 8)
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gc")
	if err := compress.WriteCompressedFile(path, c); err != nil {
		t.Fatal(err)
	}
	v, err := compress.LoadView(path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	mb, ok := v.(interface{ MappedBytes() int64 })
	if !ok || mb.MappedBytes() == 0 {
		t.Skip("mmap not available on this platform")
	}

	st := NewStore(v, Config{InitialVersion: 1})
	pin, err := st.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Updates over the mapped base must keep working for the pinned
	// reader even as the store is released (evicted) mid-query.
	if _, err := st.Update(context.Background(), []EdgeOp{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	st.Release()
	if mb.MappedBytes() == 0 {
		t.Fatal("mapping released while a pin was held")
	}
	// The pinned snapshot must stay traversable.
	deg := 0
	pin.View().OutNeighbors(0, func(uint32, int32) bool { deg++; return true })
	if deg != pin.View().OutDegree(0) {
		t.Fatal("pinned view traversal inconsistent")
	}
	pin.Release()
	if mb.MappedBytes() != 0 {
		t.Fatal("mapping not released after last pin detached")
	}
	// Idempotent.
	pin.Release()
	st.Release()
	if _, err := st.Acquire(); err == nil {
		t.Fatal("Acquire succeeded on a released store")
	}
	if _, err := st.Update(context.Background(), []EdgeOp{{Src: 0, Dst: 2}}); err == nil {
		t.Fatal("Update succeeded on a released store")
	}
}

func TestConcurrentReadersNeverBlockOnWriters(t *testing.T) {
	g := mustRMAT(t, 9)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{Window: time.Millisecond}})
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(17))
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, _ := st.Current()
			st.Update(context.Background(), randomOps(rng, cur, 50))
		}
	}()
	// Readers pin snapshots and verify internal consistency: the edge
	// count iterated must match the snapshot's NumEdges — a torn batch
	// would break that.
	for i := 0; i < 40; i++ {
		pin, err := st.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		v := pin.View()
		var m int64
		for s := 0; s < v.NumVertices(); s++ {
			m += int64(v.OutDegree(uint32(s)))
			v.OutNeighbors(uint32(s), func(uint32, int32) bool { return true })
		}
		if m != v.NumEdges() {
			t.Fatalf("snapshot v%d: degree sum %d != NumEdges %d (half-applied batch?)",
				pin.Version(), m, v.NumEdges())
		}
		pin.Release()
	}
	close(stop)
	<-writerDone
}

// TestApplyEffectiveOpsAreOrdered: the effective-op list apply hands to
// the history and the logs is a function of the batch, not of a map's
// iteration order — sorted by (Src, Dst), batch order among ops on one
// edge — and so identical run after run.
func TestApplyEffectiveOpsAreOrdered(t *testing.T) {
	g := mustRMAT(t, 8)
	rng := rand.New(rand.NewSource(17))
	ops := randomOps(rng, g, 400)
	ops = append(ops, EdgeOp{Src: 3, Dst: 200}, EdgeOp{Src: 3, Dst: 200, Del: true}, EdgeOp{Src: 3, Dst: 200})
	_, first, _ := apply(g, ops)
	if len(first) < 100 {
		t.Fatalf("only %d effective ops", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Fatalf("effective ops %d, %d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
	for run := 0; run < 5; run++ {
		if _, again, _ := apply(g, ops); !slices.Equal(again, first) {
			t.Fatalf("run %d produced a different effective-op list", run)
		}
	}
}

// TestApplyOverUnsortedRows: a base whose rows are neither sorted nor
// sets (a hand-written adjacency file, graph.FromCSR) is still merged
// correctly — through its slices and through its iterator — and a touched
// row comes out a sorted set with the last duplicate's weight, as it did
// when apply went through a map.
func TestApplyOverUnsortedRows(t *testing.T) {
	offsets := []int64{0, 4, 5, 5, 5, 5, 5}
	edges := []uint32{3, 1, 3, 2, 0}
	weights := []int32{30, 10, 31, 20, 7}
	for _, weighted := range []bool{true, false} {
		ws := weights
		if !weighted {
			ws = nil
		}
		g, err := graph.FromCSR(offsets, edges, ws, false)
		if err != nil {
			t.Fatal(err)
		}
		type hidden struct{ graph.View } // no rows: apply must gather through the iterator
		for name, base := range map[string]graph.View{"rows": g, "iterator": hidden{g}} {
			ops := []EdgeOp{{Src: 0, Dst: 5, Weight: 50}, {Src: 0, Dst: 2, Del: true}, {Src: 0, Dst: 3, Weight: 99}}
			next, eff, st := apply(base, ops)
			if st.inserted != 1 || st.deleted != 1 || st.ignored != 1 || len(eff) != 2 {
				t.Fatalf("%s weighted=%v: stats %+v, effective ops %v", name, weighted, st, eff)
			}
			var gotT []uint32
			var gotW []int32
			next.OutNeighbors(0, func(d uint32, w int32) bool {
				gotT, gotW = append(gotT, d), append(gotW, w)
				return true
			})
			wantW := []int32{10, 31, 50}
			if !weighted {
				wantW = []int32{1, 1, 1}
			}
			if !slices.Equal(gotT, []uint32{1, 3, 5}) || !slices.Equal(gotW, wantW) {
				t.Errorf("%s weighted=%v: row 0 = %v weights %v, want [1 3 5] %v", name, weighted, gotT, gotW, wantW)
			}
			if next.NumEdges() != 4 || next.OutDegree(0) != 3 || next.InDegree(5) != 1 || next.InDegree(2) != 0 {
				t.Errorf("%s weighted=%v: m=%d deg(0)=%d in(5)=%d in(2)=%d", name, weighted,
					next.NumEdges(), next.OutDegree(0), next.InDegree(5), next.InDegree(2))
			}
		}
	}
}
