package delta

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ligra/internal/graph"
)

// tableModel is the map the row table replaced: vertex -> replacement row.
type tableModel map[uint32][]uint32

// TestRowTablePersistence drives random fork / set sequences against a map
// model. Forks branch off any earlier table, not only the newest, and
// batches include rows emptied by deletes and vertices far past anything
// written before; afterwards every table ever published must still read
// exactly what its model held when it was published.
func TestRowTablePersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const baseN = 700 // batches also write up to 4 pages past it
	type fork struct {
		table rowTable
		model tableModel
	}
	forks := []fork{{model: tableModel{}}}
	for step := 0; step < 200; step++ {
		parent := forks[rng.Intn(len(forks))]
		picked := map[uint32]bool{}
		for k := 1 + rng.Intn(40); k > 0; k-- {
			v := uint32(rng.Intn(baseN))
			if rng.Intn(8) == 0 {
				v = uint32(baseN + rng.Intn(4*pageRows))
			}
			picked[v] = true
		}
		vs := make([]uint32, 0, len(picked))
		for v := range picked {
			vs = append(vs, v)
		}
		slices.Sort(vs)
		rows := make([]row, len(vs))
		model := make(tableModel, len(parent.model)+len(vs))
		for v, ts := range parent.model {
			model[v] = ts
		}
		for i, v := range vs {
			// Like apply: an emptied row is empty, never nil.
			rows[i] = row{targets: make([]uint32, 0, 8)}
			if rng.Intn(4) != 0 {
				for k := rng.Intn(8); k > 0; k-- {
					rows[i].targets = append(rows[i].targets, rng.Uint32())
				}
			}
			model[v] = rows[i].targets
		}
		forks = append(forks, fork{table: parent.table.with(vs, rows), model: model})
	}

	for i, f := range forks {
		var edges int64
		for _, ts := range f.model {
			edges += int64(len(ts))
		}
		if f.table.rows != len(f.model) || f.table.edges != edges {
			t.Fatalf("fork %d: table counts %d rows / %d edges, model %d / %d",
				i, f.table.rows, f.table.edges, len(f.model), edges)
		}
		for v := uint32(0); v < baseN+5*pageRows; v++ {
			r, ok := f.table.get(v)
			want, inModel := f.model[v]
			if ok != inModel || !slices.Equal(r.targets, want) {
				t.Fatalf("fork %d vertex %d: table (%v, %v), model (%v, %v)", i, v, r.targets, ok, want, inModel)
			}
		}
	}
}

// TestSnapshotsPersistWhileCommitsLand is the same property at the store:
// readers traverse the snapshots they pinned while a writer publishes new
// ones that share their pages, and every pinned snapshot equals the oracle
// of its own version — during the commits (readers, under -race) and after
// all of them (the final sweep). The stream grows the graph, empties rows,
// and revisits the same pages batch after batch.
func TestSnapshotsPersistWhileCommitsLand(t *testing.T) {
	g := mustRMAT(t, 8)
	st := NewStore(g, Config{InitialVersion: 1, Policy: Policy{CompactEvery: -1}})
	defer st.Release()
	ctx := context.Background()

	type pinned struct {
		pin *Pin
		ref *refGraph
	}
	snapshotRef := func(r *refGraph) *refGraph {
		c := *r
		c.edges = make(map[edgeKey]int32, len(r.edges))
		for k, w := range r.edges {
			c.edges[k] = w
		}
		return &c
	}
	var mu sync.Mutex // guards history
	var history []pinned
	keep := func(ref *refGraph) {
		pin, err := st.Acquire()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		history = append(history, pinned{pin, snapshotRef(ref)})
		mu.Unlock()
	}

	ref := newRef(g)
	keep(ref)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				h := history[rng.Intn(len(history))]
				mu.Unlock()
				// A cheap whole-view read; the exhaustive comparison runs
				// once per snapshot below.
				var edges int64
				var buf graph.Row
				for v := 0; v < h.pin.View().NumVertices(); v++ {
					ts, _ := h.pin.View().OutRow(uint32(v), &buf)
					edges += int64(len(ts))
				}
				if edges != int64(len(h.ref.edges)) {
					t.Errorf("version %d read %d edges while commits landed, oracle %d", h.pin.Version(), edges, len(h.ref.edges))
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(9))
	for batch := 0; batch < 40; batch++ {
		cur, _ := st.Current()
		ops := randomOps(rng, cur, 60)
		if batch%5 == 0 { // grow the graph past the directory's last page
			n := uint32(cur.NumVertices())
			ops = append(ops, EdgeOp{Src: uint32(rng.Intn(int(n))), Dst: n + uint32(rng.Intn(2*pageRows))})
		}
		if batch%7 == 0 { // empty one row entirely
			v := uint32(rng.Intn(cur.NumVertices()))
			var buf graph.Row
			ts, _ := cur.OutRow(v, &buf)
			for _, d := range ts {
				ops = append(ops, EdgeOp{Src: v, Dst: d, Del: true})
			}
		}
		if _, err := st.Update(ctx, ops); err != nil {
			t.Fatal(err)
		}
		ref.apply(ops)
		keep(ref)
	}
	close(done)
	readers.Wait()

	for _, h := range history {
		assertViewMatches(t, h.pin.View(), h.ref)
		h.pin.Release()
	}
}
