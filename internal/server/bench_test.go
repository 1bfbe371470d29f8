package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// BenchmarkQueryCacheHit is the serve-hot path in process: one cached bfs
// key through Handler, from request decode to the encoded reply.
func BenchmarkQueryCacheHit(b *testing.B) {
	s := New(Config{QueueWait: 100 * time.Millisecond, DefaultTimeout: 30 * time.Second, CacheBytes: 64 << 20})
	g, err := gen.RMAT(12, 16, gen.PBBSRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Registry().Load(context.Background(), "g", "bench", func() (graph.View, error) { return g, nil }); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	query := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/query", strings.NewReader(`{"algo":"bfs","source":1}`)))
		return rec
	}
	if rec := query(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := query(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
			b.Fatalf("status %d, not a cache hit: %s", rec.Code, rec.Body)
		}
	}
}
