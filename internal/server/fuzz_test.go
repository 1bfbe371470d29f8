package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ligra/internal/gen"
	"ligra/internal/graph"
)

// FuzzQueryBody posts fuzzed bytes as a query body, against a small
// symmetric graph or a small directed one, through the whole handler:
// nothing may panic (a contained panic answers 500, which no body may
// cause), the status must be one docs/SERVING.md documents for a query,
// and every refusal must be JSON with an "error". Both timeouts are one
// second, so a costly parameter set ends in a 504, not a hang.
func FuzzQueryBody(f *testing.F) {
	s := New(Config{DefaultTimeout: time.Second, MaxTimeout: time.Second})
	for name, build := range map[string]func() (*graph.Graph, error){
		"sym": func() (*graph.Graph, error) { return gen.RMAT(7, 4, gen.PBBSRMAT, 1) },
		"dir": func() (*graph.Graph, error) { return gen.RMATDirected(7, 4, gen.PBBSRMAT, 1) },
	} {
		g, err := build()
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.Registry().Load(context.Background(), name, "fuzz:"+name, func() (graph.View, error) { return g, nil }); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []struct {
		directed bool
		body     string
	}{
		{false, `{"algo":"bfs","source":3}`},
		{false, `{"algo":"landmarks","source":1,"landmarks":[2,128]}`},
		{true, `{"algo":"components"}`},
		{false, `{"algo":"bc","backend":"spmv"}`},
		{false, `{"algo":"pagerank","mode":"pull"}`},
		{true, `{"algo":"reach","source":-1,"target":5}`},
	} {
		f.Add(seed.directed, []byte(seed.body))
	}
	documented := []int{http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	f.Fuzz(func(t *testing.T, directed bool, body []byte) {
		name := "sym"
		if directed {
			name = "dir"
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs/"+name+"/query", bytes.NewReader(body)))
		if !slices.Contains(documented, w.Code) {
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}
		var reply map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d for %q: body is not JSON: %v", w.Code, body, err)
		}
		if msg, _ := reply["error"].(string); w.Code != http.StatusOK && msg == "" {
			t.Fatalf("status %d for %q: no error in %s", w.Code, body, w.Body)
		}
	})
}
