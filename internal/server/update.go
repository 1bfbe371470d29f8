package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

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
