package algo

import (
	"reflect"
	"strings"
	"testing"

	"ligra/internal/compress"
	"ligra/internal/gen"
)

// TestCanonicalStripsBackend is the cache-correctness regression test for
// the Backend field: the backends are bit-identical, so the canonical
// cache key must not distinguish them — an edgemap result must be served
// to an spmv request and vice versa.
func TestCanonicalStripsBackend(t *testing.T) {
	base := Params{Source: 7, Mode: "dense", Threshold: 99}
	for _, backend := range []string{"", BackendEdgeMap, BackendSpMV, BackendAuto} {
		p := base
		p.Backend = backend
		if got, want := p.Canonical(), base.Canonical(); got != want {
			t.Fatalf("Backend=%q changed the canonical key:\n got %q\nwant %q", backend, got, want)
		}
	}
	if strings.Contains(base.Canonical(), "backend") {
		t.Fatalf("canonical key mentions backend: %q", base.Canonical())
	}
}

// TestCanonicalNoCollisions checks that stripping Backend did not merge
// keys that must stay distinct: every other serializable field still
// separates.
func TestCanonicalNoCollisions(t *testing.T) {
	variants := []Params{
		{},
		{Source: 1},
		{Seed: 2},
		{K: 3},
		{Alpha: 0.5},
		{Eps: 1e-3},
		{Mode: "sparse"},
		{Threshold: 6},
		{Target: 7},
		{Landmarks: []uint32{8}},
		{Landmarks: []uint32{8, 9}},
	}
	seen := make(map[string]int)
	for i, p := range variants {
		key := p.Canonical()
		if j, dup := seen[key]; dup {
			t.Fatalf("variants %d and %d collide on %q", j, i, key)
		}
		seen[key] = i
	}
}

func TestValidateBackend(t *testing.T) {
	for _, backend := range []string{"", BackendEdgeMap, BackendSpMV, BackendAuto} {
		if err := (Params{Backend: backend}).Validate(); err != nil {
			t.Fatalf("Backend=%q: unexpected error %v", backend, err)
		}
	}
	err := (Params{Backend: "graphblas"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("bad backend: err = %v, want unknown-backend error", err)
	}
}

func TestResolveBackend(t *testing.T) {
	g, err := gen.RMAT(8, 16, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	c, err := compress.Compress(g)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}

	// Explicit edgemap (or empty) always resolves, kernel or not.
	for _, name := range []string{"bfs", "components"} {
		for _, b := range []string{"", BackendEdgeMap} {
			got, err := ResolveBackend(name, g, Params{Backend: b})
			if err != nil || got != BackendEdgeMap {
				t.Fatalf("ResolveBackend(%s, %q) = %q, %v", name, b, got, err)
			}
		}
	}
	// Explicit spmv: ok for kernels, an error elsewhere.
	for _, name := range []string{"bfs", "pagerank", "triangles"} {
		got, err := ResolveBackend(name, g, Params{Backend: BackendSpMV})
		if err != nil || got != BackendSpMV {
			t.Fatalf("ResolveBackend(%s, spmv) = %q, %v", name, got, err)
		}
	}
	if _, err := ResolveBackend("components", g, Params{Backend: BackendSpMV}); err == nil {
		t.Fatalf("ResolveBackend(components, spmv): want error")
	}
	// Unknown backend string is rejected (same contract as Validate).
	if _, err := ResolveBackend("bfs", g, Params{Backend: "nope"}); err == nil {
		t.Fatalf("ResolveBackend(bfs, nope): want error")
	}
	// Auto: non-kernel algorithms fall back to edgemap; pagerank and
	// triangles pick spmv on CSR views and edgemap on compressed views.
	if got, _ := ResolveBackend("components", g, Params{Backend: BackendAuto}); got != BackendEdgeMap {
		t.Fatalf("auto components = %q, want edgemap", got)
	}
	for _, name := range []string{"pagerank", "triangles"} {
		if got, _ := ResolveBackend(name, g, Params{Backend: BackendAuto}); got != BackendSpMV {
			t.Fatalf("auto %s on heap = %q, want spmv", name, got)
		}
		if got, _ := ResolveBackend(name, c, Params{Backend: BackendAuto}); got != BackendEdgeMap {
			t.Fatalf("auto %s on compressed = %q, want edgemap", name, got)
		}
	}
	// Auto bfs picks spmv on any CSR view (the scale-16 race has the
	// word-walk push winning on every suite shape) and edgemap elsewhere.
	if got, _ := ResolveBackend("bfs", g, Params{Backend: BackendAuto}); got != BackendSpMV {
		t.Fatalf("auto bfs on CSR = %q, want spmv", got)
	}
	if got, _ := ResolveBackend("bfs", c, Params{Backend: BackendAuto}); got != BackendEdgeMap {
		t.Fatalf("auto bfs on compressed = %q, want edgemap", got)
	}
}

// TestRunnersCrossBackendParity runs each kernel-backed runner under both
// backends and checks the user-visible result is identical apart from the
// backend detail itself.
func TestRunnersCrossBackendParity(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.PBBSRMAT, 42)
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	for _, name := range []string{"bfs", "pagerank", "triangles"} {
		runner, ok := FindRunner(name)
		if !ok {
			t.Fatalf("no runner %q", name)
		}
		em, err := runner.Run(nil, g, Params{Backend: BackendEdgeMap})
		if err != nil {
			t.Fatalf("%s edgemap: %v", name, err)
		}
		sv, err := runner.Run(nil, g, Params{Backend: BackendSpMV})
		if err != nil {
			t.Fatalf("%s spmv: %v", name, err)
		}
		if em.Summary != sv.Summary {
			t.Fatalf("%s summaries diverge:\n edgemap %q\n spmv    %q", name, em.Summary, sv.Summary)
		}
		if em.Details["backend"] != BackendEdgeMap || sv.Details["backend"] != BackendSpMV {
			t.Fatalf("%s backend details = %v / %v", name, em.Details["backend"], sv.Details["backend"])
		}
		delete(em.Details, "backend")
		delete(sv.Details, "backend")
		if !reflect.DeepEqual(em.Details, sv.Details) {
			t.Fatalf("%s details diverge:\n edgemap %v\n spmv    %v", name, em.Details, sv.Details)
		}
	}
}
