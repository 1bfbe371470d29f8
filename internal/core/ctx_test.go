package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ligra/internal/faultinject"
	"ligra/internal/parallel"
)

func TestEdgeMapCtxPreCancelled(t *testing.T) {
	g := testGraph(t)
	u := NewSingle(g.NumVertices(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var applied atomic.Int64
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool {
		applied.Add(1)
		return true
	}}
	out, err := EdgeMapCtx(ctx, g, u, f, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("interrupted EdgeMapCtx returned a frontier: %v", out.ToSparse())
	}
	if applied.Load() != 0 {
		t.Errorf("edge function applied %d times on a pre-cancelled context", applied.Load())
	}
}

func TestEdgeMapCtxCancelDuringTraversal(t *testing.T) {
	g := testGraph(t)
	u := NewSingle(g.NumVertices(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool {
		cancel()
		return true
	}}
	_, err := EdgeMapCtx(ctx, g, u, f, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEdgeMapCtxMatchesEdgeMapWithoutContext(t *testing.T) {
	g := testGraph(t)
	for _, opts := range []Options{{}, {Mode: ForceDense}, {Mode: ForceDense, DenseForward: true}} {
		u := NewSingle(g.NumVertices(), 0)
		f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}
		want := sortedIDs(EdgeMap(g, u, f, opts))
		got, err := EdgeMapCtx(nil, g, u, f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := sortedIDs(got), want; len(g) != len(w) {
			t.Fatalf("frontier mismatch: got %v want %v", g, w)
		} else {
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("frontier mismatch: got %v want %v", g, w)
				}
			}
		}
	}
}

func TestEdgeMapCtxWorkerPanicBecomesError(t *testing.T) {
	g := testGraph(t)
	u := NewSingle(g.NumVertices(), 0)
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool {
		panic("bad update")
	}}
	_, err := EdgeMapCtx(context.Background(), g, u, f, Options{})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *parallel.PanicError", err)
	}
	if pe.Value != "bad update" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
}

func TestEdgeMapPlainPanicIsTyped(t *testing.T) {
	g := testGraph(t)
	u := NewSingle(g.NumVertices(), 0)
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool {
		panic("plain boom")
	}}
	defer func() {
		r := recover()
		if _, ok := r.(*parallel.PanicError); !ok {
			t.Fatalf("recovered %T (%v), want *parallel.PanicError", r, r)
		}
	}()
	EdgeMap(g, u, f, Options{})
}

func TestVertexMapCtx(t *testing.T) {
	g := testGraph(t)
	u := NewAll(g.NumVertices())
	var visited atomic.Int64
	if err := VertexMapCtx(nil, u, func(v uint32) { visited.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if visited.Load() != int64(g.NumVertices()) {
		t.Errorf("visited %d of %d vertices", visited.Load(), g.NumVertices())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited.Store(0)
	err := VertexMapCtx(ctx, u, func(v uint32) { visited.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited.Load() != 0 {
		t.Errorf("visited %d vertices on a pre-cancelled context", visited.Load())
	}
}

func TestEdgeMapCtxFaultInjectedCancel(t *testing.T) {
	g := testGraph(t)
	u := NewSingle(g.NumVertices(), 0)
	ctx, disarm := faultinject.CancelOnRound(context.Background(), 1)
	defer disarm()
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool { return true }}
	// Round 1 (the first EdgeMap invocation) trips the injected cancel.
	_, err := EdgeMapCtx(ctx, g, u, f, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from injected round fault", err)
	}
}

func TestEdgeMapCtxOptionsProcsCapsConcurrency(t *testing.T) {
	old := parallel.Procs()
	parallel.SetProcs(8)
	defer parallel.SetProcs(old)

	g := testGraph(t)
	u := NewAll(g.NumVertices())
	var cur, peak atomic.Int64
	f := EdgeFuncs{UpdateAtomic: func(s, d uint32, _ int32) bool {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return true
	}}
	for _, mode := range []Mode{ForceSparse, ForceDense} {
		cur.Store(0)
		peak.Store(0)
		_, err := EdgeMapCtx(nil, g, u, f, Options{Mode: mode, Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > 1 {
			t.Errorf("mode %v: observed %d concurrent updates with Options.Procs=1", mode, p)
		}
	}
}
