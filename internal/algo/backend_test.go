package algo

import (
	"reflect"
	"strings"
	"testing"

	"ligra/internal/core"
	"ligra/internal/gen"
)

// TestCanonicalStripsBackend is the cache-correctness regression test for
// the Backend field: every backend name runs the same engine, so the
// canonical cache key must not distinguish them — an edgemap result must
// be served to an spmv request and vice versa.
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

// TestModeWireNames pins every wire mode to the core.Mode each of its
// rounds is forced to, and back through Mode.String; Canonical keeps the
// wire spelling, so cache keys do not depend on the Mode values.
func TestModeWireNames(t *testing.T) {
	for _, tc := range []struct {
		wire, canonical string
		want            core.Mode
	}{
		{"", "auto", core.Auto},
		{"auto", "auto", core.Auto},
		{"sparse", "sparse", core.Sparse},
		{"dense", "dense", core.Pull},
		{"dense-forward", "dense-forward", core.Forward},
	} {
		p := Params{Mode: tc.wire}
		if err := p.Validate(); err != nil {
			t.Fatalf("Mode=%q: unexpected error %v", tc.wire, err)
		}
		if got := p.EdgeMapOptions().Mode; got != tc.want {
			t.Errorf("Mode=%q: EdgeMapOptions().Mode = %v, want %v", tc.wire, got, tc.want)
		}
		if got := tc.want.String(); got != tc.canonical {
			t.Errorf("%d.String() = %q, want %q", tc.want, got, tc.canonical)
		}
		if key := p.Canonical(); !strings.Contains(key, " mode="+tc.canonical+" ") {
			t.Errorf("Mode=%q: Canonical() = %q, want mode=%s", tc.wire, key, tc.canonical)
		}
	}
	err := (Params{Mode: "pull"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "auto | sparse | dense | dense-forward") {
		t.Fatalf("bad mode: err = %v, want the unknown-mode error listing every mode", err)
	}
}

// TestBatchValidateBackend pins the per-algorithm half of the backend
// contract: "spmv" is accepted by bfs, pagerank and triangles, which run
// edgeMap under it, and is an error for every other algorithm; the other
// names are accepted everywhere.
func TestBatchValidateBackend(t *testing.T) {
	for _, name := range RunnerNames() {
		for _, b := range []string{"", BackendEdgeMap, BackendAuto} {
			if err := BatchValidate(name, 10, Params{Backend: b, Landmarks: []uint32{1}}); err != nil {
				t.Fatalf("BatchValidate(%s, %q) = %v", name, b, err)
			}
		}
	}
	for _, name := range []string{"bfs", "pagerank", "triangles"} {
		if err := BatchValidate(name, 10, Params{Backend: BackendSpMV}); err != nil {
			t.Fatalf("BatchValidate(%s, spmv) = %v", name, err)
		}
	}
	err := BatchValidate("components", 10, Params{Backend: BackendSpMV})
	if err == nil || err.Error() != `algorithm "components" has no spmv kernel (backends: bfs, pagerank, triangles)` {
		t.Fatalf("BatchValidate(components, spmv) = %v, want the no-kernel error", err)
	}
}

// TestRunnersCrossBackendParity runs each runner that reports a backend
// under every backend name and checks the whole result is identical: one
// engine answers, and it reports itself as edgemap.
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
		if em.Details["backend"] != BackendEdgeMap {
			t.Fatalf("%s backend detail = %v, want edgemap", name, em.Details["backend"])
		}
		for _, b := range []string{"", BackendSpMV, BackendAuto} {
			got, err := runner.Run(nil, g, Params{Backend: b})
			if err != nil {
				t.Fatalf("%s %q: %v", name, b, err)
			}
			if !reflect.DeepEqual(em, got) {
				t.Fatalf("%s under %q diverges from edgemap:\n edgemap %v\n %-7s %v", name, b, em, b, got)
			}
		}
	}
}
