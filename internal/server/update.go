package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ligra/internal/algo"
	"ligra/internal/delta"
)

// updateRequest is the body of POST /v1/graphs/{name}/update: a batch of
// edge mutations. See docs/SERVING.md for the wire contract.
type updateRequest struct {
	// Ops are applied in order as one atomic batch: readers observe
	// either none or all of them. Inserting an existing edge or deleting
	// a missing one is a counted no-op, so batches are idempotent under
	// replay. Self-loops are rejected; endpoints past the current vertex
	// count grow the graph.
	Ops []delta.EdgeOp `json:"ops"`
}

// updateResponse is the body of an update reply.
type updateResponse struct {
	Graph string `json:"graph"`
	delta.ApplyResult
	ElapsedMs float64 `json:"elapsed_ms"`
}

// handleUpdate applies one edge batch through the graph's group commit:
// concurrent requests that arrive within the update window share one
// commit (and one snapshot version), a full backlog is turned away with
// 429 + Retry-After, and the response reports the snapshot version the
// batch produced.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !s.decode(w, r, "update", &req) {
		return
	}
	name := r.PathValue("name")
	start := time.Now()
	res, err := s.reg.Update(r.Context(), name, req.Ops)
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	switch {
	case err == nil:
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, delta.ErrBusy):
		reject(w, http.StatusTooManyRequests, s.cfg.updateWindow()+50*time.Millisecond,
			"update_busy", fmt.Sprintf("update backlog full for %q, retry later", name), nil)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away while waiting on the group commit; its
		// ops still land with the commit's leader.
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if res.Version != res.PrevVersion {
		s.log.Info("update applied", "graph", name,
			"version", res.Version, "prev_version", res.PrevVersion,
			"inserted", res.Inserted, "deleted", res.Deleted, "ignored", res.Ignored,
			"requests_batched", res.Requests, "compacted", res.Compacted,
			"dur_ms", elapsed)
	}
	writeJSON(w, http.StatusOK, updateResponse{Graph: name, ApplyResult: res, ElapsedMs: elapsed})
}

// incrementalRun serves the algorithms with incremental refresh paths
// ("components", "pagerank-delta") from the pinned snapshot's delta
// store: when the store's previous result can be carried forward by
// replaying the delta log, the refresh touches only delta-affected
// vertices; otherwise it falls back to a full recompute internally.
// Reports false for every other algorithm, sending the caller to the
// plain runner path. The result mirrors the registry runner's shape,
// plus an "incremental" detail reporting which path served it. It runs
// inside engine.Run, whose panic containment covers the refresh.
func incrementalRun(ctx context.Context, pin *delta.Pin, algoName string, p algo.Params) (algo.RunResult, bool, error) {
	st := pin.Store()
	if st == nil {
		return algo.RunResult{}, false, nil
	}
	switch algoName {
	case "components":
		res, incremental, err := st.RefreshCC(ctx, pin, p.EdgeMapOptions())
		return algo.RunResult{
			Summary: fmt.Sprintf("Components: %d components in %d rounds", res.Components, res.Rounds),
			Details: map[string]any{"components": res.Components, "rounds": res.Rounds, "incremental": incremental},
		}, true, err
	case "pagerank-delta":
		o := algo.DefaultPageRankOptions()
		o.EdgeMap = p.EdgeMapOptions()
		res, incremental, err := st.RefreshPageRankDelta(ctx, pin, o, 1e-3)
		return algo.RunResult{
			Summary: fmt.Sprintf("PageRank-Delta: %d iterations, final L1 change %.3g", res.Iterations, res.Err),
			Details: map[string]any{"iterations": res.Iterations, "l1_change": res.Err, "incremental": incremental},
		}, true, err
	}
	return algo.RunResult{}, false, nil
}
