package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"
)

// serve-hot: a closed loop over a small fixed key set. Every key is
// issued once in warm-up, so the window is ~100 % result-cache hits: the
// kernels do nothing, and net/http, JSON decode, pin, breaker, admission,
// the cache lookup and the indented JSON encode are all of the cost.
func planHot(e *serveEnv) *plan {
	perm := e.oracle.giantPermutation(e.rng)
	// Mostly cheap keys, so warm-up (which set-up time includes) stays
	// short: 3/4 bfs, 1/8 components, 1/16 pagerank, 1/16 kcore. The
	// source makes a key distinct even for the whole-graph algorithms —
	// it is part of the canonical parameters the cache keys on.
	n := e.rc.sz.hotKeys
	keys := make([]*request, n)
	for i := range keys {
		algo := "bfs"
		switch {
		case i >= n-n/16:
			algo = "kcore"
		case i >= n-n/8:
			algo = "pagerank"
		case i >= n-n/4:
			algo = "components"
		}
		keys[i] = queryRequest(algo, perm[i%len(perm)], nil)
		keys[i].hot = true
	}
	// Popularity rank is independent of the algorithm.
	ranked := append([]*request(nil), keys...)
	e.rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	zipf := rand.NewZipf(e.rng, 1.1, 1, uint64(n-1))
	pl := &plan{warm: [][]*request{keys}}
	for c := 0; c < e.clients; c++ {
		seq := make([]*request, 1<<16)
		for i := range seq {
			seq[i] = ranked[zipf.Uint64()]
		}
		pl.clients = append(pl.clients, seq)
	}
	return pl
}

// serve-traverse: a closed loop in which no source ever repeats, so the
// cache cannot help and every request pays the batch collector's window
// plus a ClusterBFS sweep.
func planTraverse(e *serveEnv) *plan {
	perm := e.oracle.giantPermutation(e.rng)
	n := uint32(e.g.NumVertices())
	fresh := func(src uint32) *request {
		switch x := e.rng.Float64(); {
		case x < 0.5:
			return queryRequest("bfs", src, nil)
		case x < 0.8:
			tgt := uint32(e.rng.Intn(int(n)))
			r := queryRequest("reach", src, map[string]any{"target": tgt})
			r.target = tgt
			return r
		default:
			lms := make([]uint32, 4)
			for i := range lms {
				lms[i] = uint32(e.rng.Intn(int(n)))
			}
			r := queryRequest("landmarks", src, map[string]any{"landmarks": lms})
			r.landmarks = lms
			return r
		}
	}
	pl := &plan{}
	// A handful of throwaway sources warm connections and worker pools.
	var warm []*request
	for _, src := range perm[:min(8, len(perm))] {
		warm = append(warm, fresh(src))
	}
	pl.warm = [][]*request{warm}
	rest := perm[len(warm):]
	per := len(rest) / e.clients
	for c := 0; c < e.clients; c++ {
		seq := make([]*request, 0, per)
		for _, src := range rest[c*per : (c+1)*per] {
			seq = append(seq, fresh(src))
		}
		pl.clients = append(pl.clients, seq)
	}
	return pl
}

// serve-mixed: an open loop of reads interleaved with one writer stream
// of update batches, on a fixed schedule generated from the seed.
// The offered rates are frozen: about half of what the same mix sustained
// closed-loop (C = 2) on the commit that introduced the benchmark, on the
// 2-core machine it was written on. See README.md, "frozen rates".
const (
	mixedReadRPS   = 12.0
	mixedUpdateBPS = 3.0
	updateInserts  = 12 // per batch; insert:delete is 3:1
	updateDeletes  = 4
	primeBatchOps  = 50000
	localKeys      = 16 // hot local-cluster keys
)

func updateRequest(ops []map[string]any) *request {
	body, _ := json.Marshal(map[string]any{"ops": ops})
	return &request{ops: len(ops), path: "/v1/graphs/" + graphName + "/update", body: body}
}

// primingInserts is how many undirected edges to insert before the window
// so that, under the server's default policy (compact once the overlay's
// directed churn reaches max(4096, |E|/8)), the compaction fires on the
// fireAt-th update batch of the stream — mid-window, where its cost lands
// on concurrent readers — instead of never: at 16 ops a batch the stream
// alone would need hours to churn an eighth of the graph.
func primingInserts(m int64, fireAt int) int {
	perBatchChurn := int64(2 * (updateInserts + updateDeletes))
	perBatchGrowth := int64(2 * (updateInserts - updateDeletes))
	return sort.Search(int(m), func(p int) bool {
		churn := 2*int64(p) + perBatchChurn*int64(fireAt)
		threshold := (m + 2*int64(p) + perBatchGrowth*int64(fireAt)) / 8
		if threshold < 4096 {
			threshold = 4096
		}
		return churn >= threshold
	})
}

func planMixed(e *serveEnv) *plan {
	perm := e.oracle.giantPermutation(e.rng)
	n := e.g.NumVertices()
	pl := &plan{ledger: newEdgeLedger(e.g)}
	nUpdates := max(2, int(mixedUpdateBPS*e.rc.seconds))
	nReads := max(4, int(mixedReadRPS*e.rc.seconds))

	// Priming: big insert-only batches, one per warm stage so they apply
	// in order. Inserts stay inside the giant component and deletes only
	// remove edges the stream inserted, so connectivity never changes and
	// the component oracle holds at every version.
	insertOp := func() map[string]any {
		a, b := pl.ledger.insert(e.rng, e.oracle.giant)
		return map[string]any{"src": a, "dst": b}
	}
	for left := primingInserts(e.g.NumEdges(), max(1, nUpdates*35/100)); left > 0; {
		k := min(left, primeBatchOps)
		ops := make([]map[string]any, k)
		for i := range ops {
			ops[i] = insertOp()
		}
		pl.warm = append(pl.warm, []*request{updateRequest(ops)})
		left -= k
	}

	// Warm-up queries: the hot local-cluster keys, and one components and
	// one pagerank-delta so the incremental refreshers have a previous
	// result to carry forward.
	local := make([]*request, localKeys)
	for i := range local {
		local[i] = queryRequest("local-cluster", perm[i%len(perm)], nil)
		local[i].hot = true
	}
	pl.warm = append(pl.warm, append([]*request{
		queryRequest("components", 0, nil), queryRequest("pagerank-delta", 0, nil)}, local...))

	// The kinds come from a shuffled deck with exact proportions, so every
	// seed issues the same number of each and only their order differs.
	kinds := make([]int, nReads)
	for i := range kinds {
		switch x := float64(i) / float64(nReads); {
		case x < 0.40:
			kinds[i] = 0 // bfs, fresh source
		case x < 0.60:
			kinds[i] = 1 // reach
		case x < 0.75:
			kinds[i] = 2 // components
		case x < 0.85:
			kinds[i] = 3 // pagerank-delta
		default:
			kinds[i] = 4 // a hot local-cluster key
		}
	}
	e.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	fresh := perm[min(localKeys, len(perm)-1):]
	period := float64(time.Second) / mixedReadRPS
	for i, kind := range kinds {
		src := fresh[i%len(fresh)]
		var r *request
		switch kind {
		case 0:
			r = queryRequest("bfs", src, nil)
		case 1:
			tgt := uint32(e.rng.Intn(n))
			r = queryRequest("reach", src, map[string]any{"target": tgt})
			r.target = tgt
		case 2:
			r = queryRequest("components", 0, nil)
		case 3:
			r = queryRequest("pagerank-delta", 0, nil)
		default:
			hot := *local[e.rng.Intn(len(local))] // a copy: each scheduled request has its own due time
			r = &hot
		}
		// Evenly spaced, each moved by up to a tenth of the period.
		r.due = time.Duration((float64(i) + 0.5 + 0.2*(e.rng.Float64()-0.5)) * period)
		pl.reads = append(pl.reads, r)
	}

	upPeriod := float64(time.Second) / mixedUpdateBPS
	for j := 0; j < nUpdates; j++ {
		ops := make([]map[string]any, 0, updateInserts+updateDeletes)
		for k := 0; k < updateDeletes; k++ { // deletes first: never an edge this batch inserts
			a, b := pl.ledger.remove(e.rng)
			ops = append(ops, map[string]any{"src": a, "dst": b, "del": true})
		}
		for k := 0; k < updateInserts; k++ {
			ops = append(ops, insertOp())
		}
		r := updateRequest(ops)
		r.due = time.Duration((float64(j) + 0.5) * upPeriod)
		pl.updates = append(pl.updates, r)
	}
	return pl
}
