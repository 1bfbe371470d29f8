package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"regexp"
	"testing"

	"ligra/internal/algo"
	"ligra/internal/faultinject"
	"ligra/internal/gen"
	"ligra/internal/graph"
	"ligra/internal/server/batch"
	"ligra/internal/server/engine"
)

// packBody is a query of r on a graph of at least 16 vertices, with the
// parameters r needs.
func packBody(r algo.Runner) string {
	switch r.Name {
	case "reach":
		return `{"algo":"reach","source":1,"target":7}`
	case "landmarks":
		return `{"algo":"landmarks","source":1,"landmarks":[0,5,9,5,1,15]}`
	}
	return fmt.Sprintf(`{"algo":%q,"source":1}`, r.Name)
}

// untimed drops the reply lines that say how a reply was served, not
// what it answers, and every line's trailing comma (the last field
// moves when one of them is dropped).
func untimed(body []byte) string {
	body = regexp.MustCompile(`(?m)^  "(elapsed_ms|cached|coalesced|procs)": .*\n`).ReplaceAll(body, nil)
	return string(regexp.MustCompile(`(?m),$`).ReplaceAll(body, nil))
}

// mapReply is a reply encoded the way every reply was before answers were
// packed: the details as a map, non-finite floats sanitized in place.
func mapReply(t *testing.T, res algo.RunResult) []byte {
	t.Helper()
	details := maps.Clone(res.Details)
	for k, v := range details {
		if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
			details[k] = fmt.Sprint(f)
		}
	}
	backend, _ := details["backend"].(string)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Summary string         `json:"summary,omitempty"`
		Details map[string]any `json:"details,omitempty"`
		Backend string         `json:"backend,omitempty"`
	}{res.Summary, details, backend})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packedReply is the same fields of the reply render writes from v.
func packedReply(t *testing.T, v engine.Value) []byte {
	t.Helper()
	a := v.Data.(*batch.Answer)
	if want := int64(len(a.Summary()) + len(a.Details()) + len(a.Backend())); v.Bytes != want {
		t.Errorf("Value.Bytes = %d, packed length %d", v.Bytes, want)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Summary string          `json:"summary,omitempty"`
		Details json.RawMessage `json:"details,omitempty"`
		Backend string          `json:"backend,omitempty"`
	}{a.Summary(), a.Details(), a.Backend()})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackedAnswersReplyAsMaps: for every runner, the packed answer
// renders to the bytes its details map rendered to, and so does a
// batched slot's; a partial PageRank's +Inf is packed as the string
// "+Inf"; Value.Bytes is the packed length throughout.
func TestPackedAnswersReplyAsMaps(t *testing.T) {
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, r := range algo.Runners() {
		var p algo.Params
		if err := json.Unmarshal([]byte(packBody(r)), &p); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(ctx, g, p)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		want := mapReply(t, res)
		if got := packedReply(t, batch.Pack(res)); !bytes.Equal(got, want) {
			t.Errorf("%s: packed reply\n%s\nwant\n%s", r.Name, got, want)
		}
		if r.Sweeps() {
			vals, err := batch.ClusterRun(ctx, g, []batch.Request{{Runner: r, Params: p}})
			if err != nil {
				t.Fatal(err)
			}
			if got := packedReply(t, vals[0]); !bytes.Equal(got, want) {
				t.Errorf("%s: batched slot's reply\n%s\nwant\n%s", r.Name, got, want)
			}
		}
	}

	pagerank, _ := algo.FindRunner("pagerank")
	cancelled, disarm := faultinject.CancelOnRound(ctx, 1)
	res, err := pagerank.Run(cancelled, g, algo.Params{})
	disarm()
	if err == nil || !math.IsInf(res.Details["l1_change"].(float64), 1) {
		t.Fatalf("pagerank cancelled in its first round: %v, l1_change %v; want an error and +Inf", err, res.Details["l1_change"])
	}
	want := mapReply(t, res)
	v := batch.Pack(res)
	if got := packedReply(t, v); !bytes.Equal(got, want) {
		t.Errorf("partial pagerank: packed reply\n%s\nwant\n%s", got, want)
	}
	if d := v.Data.(*batch.Answer).Details(); !bytes.Contains(d, []byte(`"l1_change":"+Inf"`)) {
		t.Errorf("partial pagerank: details %s, want l1_change \"+Inf\"", d)
	}
}

// TestCachedReplyMatchesExecuted: for every runner, the reply served
// from the result cache is byte for byte the reply that executed, apart
// from elapsed_ms, cached, coalesced and procs; and the cache charges
// each answer the packed length of what the reply shows.
func TestCachedReplyMatchesExecuted(t *testing.T) {
	s := New(contractConfig())
	g, err := gen.RMAT(10, 16, gen.PBBSRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Load(context.Background(), "g", "pack:g", func() (graph.View, error) { return g, nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var packed int64
	for _, r := range algo.Runners() {
		body := packBody(r)
		executed := serveQuery(t, s, ctx, "g", body)
		cached := serveQuery(t, s, ctx, "g", body)
		if executed.Code != http.StatusOK || cached.Code != http.StatusOK {
			t.Fatalf("%s: status %d then %d: %s", r.Name, executed.Code, cached.Code, cached.Body)
		}
		if !bytes.Contains(cached.Body.Bytes(), []byte(`"cached": true`)) {
			t.Fatalf("%s: second reply not from the cache: %s", r.Name, cached.Body)
		}
		if got, want := untimed(cached.Body.Bytes()), untimed(executed.Body.Bytes()); got != want {
			t.Errorf("%s: cached reply\n%s\nexecuted\n%s", r.Name, got, want)
		}
		var reply struct {
			Summary string
			Details json.RawMessage
			Backend string
		}
		if err := json.Unmarshal(executed.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		var details bytes.Buffer
		if len(reply.Details) > 0 {
			if err := json.Compact(&details, reply.Details); err != nil {
				t.Fatal(err)
			}
		}
		packed += int64(len(reply.Summary)+details.Len()+len(reply.Backend)) + 256 // the cache's per-entry charge
	}
	if got := s.engine.Cache().Stats().Bytes; got != packed {
		t.Errorf("cache charges %d bytes, the replies' packed answers come to %d", got, packed)
	}
}
