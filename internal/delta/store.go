package delta

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ligra/internal/algo"
	"ligra/internal/graph"
)

// Store errors.
var (
	// ErrReleased reports an operation on a store whose graph has been
	// evicted.
	ErrReleased = errors.New("delta: store released")
	// ErrBusy reports an update rejected because the pending-op budget
	// is full; clients should back off and retry.
	ErrBusy = errors.New("delta: update backlog full")
)

// Policy parameterizes a Store's write path.
type Policy struct {
	// Window is the group-commit window: the first writer of a commit
	// waits this long for companions before applying, so a burst of
	// small updates lands as one snapshot instead of N. 0 applies
	// immediately (concurrent writers still coalesce behind the
	// serialized apply).
	Window time.Duration
	// MaxPending caps the ops buffered across forming commits; past it
	// Update fails with ErrBusy (the server maps this to 429 +
	// Retry-After). 0 selects 1<<20.
	MaxPending int
	// CompactEvery is the churn threshold (effective ops accumulated in
	// the overlay) past which a commit materializes a flat CSR snapshot.
	// 0 selects max(4096, |E|/8); negative disables compaction.
	CompactEvery int64
	// HistoryDepth is how many applied batches are kept for incremental
	// recomputation replay. 0 selects 8; negative keeps none.
	HistoryDepth int
}

func (p Policy) maxPending() int {
	if p.MaxPending > 0 {
		return p.MaxPending
	}
	return 1 << 20
}

func (p Policy) historyDepth() int {
	switch {
	case p.HistoryDepth > 0:
		return p.HistoryDepth
	case p.HistoryDepth < 0:
		return 0
	default:
		return 8
	}
}

func (p Policy) compactThreshold(m int64) int64 {
	switch {
	case p.CompactEvery > 0:
		return p.CompactEvery
	case p.CompactEvery < 0:
		return 0 // never
	default:
		t := m / 8
		if t < 4096 {
			t = 4096
		}
		return t
	}
}

// Config parameterizes a Store.
type Config struct {
	Policy
	// InitialVersion is the version of the snapshot the store is born
	// with (the registry passes its load generation).
	InitialVersion uint64
	// NextVersion, when set, issues the version for each applied commit
	// (the registry passes a closure bumping its per-name Generation
	// counter, making snapshot versions and cache generations one
	// sequence). It is called with no store locks held. nil increments
	// locally.
	NextVersion func() uint64
}

// AppliedBatch is one committed update batch kept in the replay
// history: the effective directed ops that moved version FromVersion to
// ToVersion.
type AppliedBatch struct {
	FromVersion, ToVersion uint64
	Ops                    []EdgeOp
	OldN, NewN             int
}

// ApplyResult reports one settled update request. All requests that
// shared a group commit receive the same result.
type ApplyResult struct {
	// Version is the snapshot the batch produced (unchanged when the
	// whole batch was a no-op).
	Version uint64 `json:"version"`
	// PrevVersion is the snapshot the batch was applied to.
	PrevVersion uint64 `json:"prev_version"`
	// Inserted/Deleted count effective directed edges; Ignored counts
	// no-op ops (insert-existing, delete-missing).
	Inserted int64 `json:"inserted"`
	Deleted  int64 `json:"deleted"`
	Ignored  int64 `json:"ignored"`
	// Requests is how many update requests shared this group commit.
	Requests int `json:"requests_batched"`
	// Compacted reports that this commit materialized a flat CSR
	// snapshot.
	Compacted bool  `json:"compacted,omitempty"`
	Vertices  int   `json:"vertices"`
	Edges     int64 `json:"edges"`
}

// Stats is the store's monotonic counter set.
type Stats struct {
	Batches     int64 `json:"batches"`
	Requests    int64 `json:"update_requests"`
	Inserted    int64 `json:"edges_inserted"`
	Deleted     int64 `json:"edges_deleted"`
	Ignored     int64 `json:"ops_ignored"`
	Rejected    int64 `json:"rejected_busy"`
	Compactions int64 `json:"compactions"`
	// IncrementalRuns/FullRuns count how often the incremental
	// refreshers could replay the delta log versus falling back to a
	// full recompute.
	IncrementalRuns int64 `json:"incremental_runs"`
	FullRuns        int64 `json:"full_runs"`
}

// Add accumulates o into s (for registry-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.Batches += o.Batches
	s.Requests += o.Requests
	s.Inserted += o.Inserted
	s.Deleted += o.Deleted
	s.Ignored += o.Ignored
	s.Rejected += o.Rejected
	s.Compactions += o.Compactions
	s.IncrementalRuns += o.IncrementalRuns
	s.FullRuns += o.FullRuns
}

// Gauges is the store's point-in-time state for /metrics and /healthz.
type Gauges struct {
	Version       uint64
	PinnedReaders int64
	Compacting    bool
	Vertices      int
	Edges         int64
	DirtyRows     int
	HistoryLen    int
}

// commit is one forming group commit: ops from every writer that
// arrived in the window, settled together.
type commit struct {
	ops      []EdgeOp
	requests int
	done     chan struct{}
	res      ApplyResult
	err      error
}

// Store manages the versioned snapshots of one graph. Reads pin a
// snapshot (Acquire) and traverse without synchronization; writes go
// through Update, which group-commits batches and publishes a new
// immutable snapshot per commit. Release marks the graph evicted: the
// base backend (e.g. an mmap'd compressed graph) is closed only when
// the last pin detaches, so in-flight queries never observe an unmapped
// view.
type Store struct {
	cfg Config

	mu         sync.Mutex
	base       viewCloser // original backend; closed on release after last unpin
	cur        *pinnedView
	version    uint64
	pins       int64
	released   bool
	compacting bool
	forming    *commit
	pendingOps int
	history    []AppliedBatch
	stats      Stats

	// applyMu serializes batch application (gather + overlay build +
	// compaction) outside mu, so readers acquiring pins never wait on a
	// writer.
	applyMu sync.Mutex

	cc tracker[*algo.CCResult]
	pr tracker[*algo.PageRankResult]
}

// viewCloser pairs a view with its optional Close.
type viewCloser struct {
	view   graph.View
	closer func() error
}

// Pin is one reader's lease on a snapshot. The view stays valid —
// including its backing mmap — until Release. Release is idempotent.
type Pin struct {
	store    *Store
	view     graph.View
	version  uint64
	released bool
	mu       sync.Mutex
}

// View returns the pinned snapshot's view.
func (p *Pin) View() graph.View { return p.view }

// Version returns the pinned snapshot's version.
func (p *Pin) Version() uint64 { return p.version }

// Store returns the owning store (for re-pinning from detached work,
// e.g. batch sweeps).
func (p *Pin) Store() *Store { return p.store }

// Release detaches the reader. When the store has been released and
// this was the last pin, the base backend is closed (unmapping an
// mmap-backed graph).
func (p *Pin) Release() {
	p.mu.Lock()
	if p.released {
		p.mu.Unlock()
		return
	}
	p.released = true
	p.mu.Unlock()
	p.store.unpin()
}

type pinnedView struct {
	view    graph.View
	version uint64
}

// NewStore wraps base as version cfg.InitialVersion. If base implements
// Close (the mmap-backed compressed graph does), the store takes
// ownership: Close runs once the store is released and the last pin
// detaches.
func NewStore(base graph.View, cfg Config) *Store {
	s := &Store{cfg: cfg, version: cfg.InitialVersion}
	s.base = viewCloser{view: base}
	if c, ok := base.(interface{ Close() error }); ok {
		s.base.closer = c.Close
	}
	s.cur = &pinnedView{view: base, version: cfg.InitialVersion}
	return s
}

// Acquire pins the current snapshot. Fails with ErrReleased after the
// graph is evicted.
func (s *Store) Acquire() (*Pin, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return nil, ErrReleased
	}
	s.pins++
	return &Pin{store: s, view: s.cur.view, version: s.cur.version}, nil
}

// TryAcquire is Acquire for callers that can proceed without the pin
// (detached batch sweeps re-pin at execution time and abort if the
// graph is gone).
func (s *Store) TryAcquire() (*Pin, bool) {
	p, err := s.Acquire()
	return p, err == nil
}

func (s *Store) unpin() {
	s.mu.Lock()
	s.pins--
	closeNow := s.released && s.pins == 0
	closer := s.base.closer
	if closeNow {
		s.base.closer = nil
	}
	s.mu.Unlock()
	if closeNow && closer != nil {
		_ = closer()
	}
}

// Release marks the store evicted: no new pins or updates are admitted,
// and the base backend is closed as soon as the last pin detaches (now,
// if there are none). Idempotent.
func (s *Store) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	closeNow := s.pins == 0
	closer := s.base.closer
	if closeNow {
		s.base.closer = nil
	}
	s.mu.Unlock()
	if closeNow && closer != nil {
		_ = closer()
	}
}

// Current returns the current snapshot's view and version without
// pinning it. The view itself is immutable and safe to traverse, but an
// eviction may unmap an mmap-backed base underneath it — use Acquire
// for anything long-running.
func (s *Store) Current() (graph.View, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.view, s.cur.version
}

// Gauges reports the store's live state.
func (s *Store) Gauges() Gauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := Gauges{
		Version:       s.cur.version,
		PinnedReaders: s.pins,
		Compacting:    s.compacting,
		Vertices:      s.cur.view.NumVertices(),
		Edges:         s.cur.view.NumEdges(),
		HistoryLen:    len(s.history),
	}
	if ov, ok := s.cur.view.(*overlay); ok {
		g.DirtyRows = ov.DirtyRows()
	}
	return g
}

// Stats reports the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Update applies ops as part of a group commit: the first writer of a
// window becomes the leader, waits Policy.Window for companions, then
// applies every buffered op as one batch and publishes one new
// snapshot. All writers of the commit receive the same ApplyResult.
// ctx bounds only the follower wait — a leader finishes its commit even
// if its client goes away, because followers' ops ride on it.
func (s *Store) Update(ctx context.Context, ops []EdgeOp) (ApplyResult, error) {
	if err := ValidateOps(ops); err != nil {
		return ApplyResult{}, err
	}
	if len(ops) == 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.released {
			return ApplyResult{}, ErrReleased
		}
		return ApplyResult{Version: s.cur.version, PrevVersion: s.cur.version, Requests: 1,
			Vertices: s.cur.view.NumVertices(), Edges: s.cur.view.NumEdges()}, nil
	}

	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return ApplyResult{}, ErrReleased
	}
	if s.pendingOps+len(ops) > s.cfg.maxPending() {
		s.stats.Rejected++
		pending := s.pendingOps
		s.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("%w: %d ops pending", ErrBusy, pending)
	}
	leader := false
	if s.forming == nil {
		s.forming = &commit{done: make(chan struct{})}
		leader = true
	}
	c := s.forming
	c.ops = append(c.ops, ops...)
	c.requests++
	s.pendingOps += len(ops)
	s.stats.Requests++
	s.mu.Unlock()

	if !leader {
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			// The ops stay in the commit; the leader will apply them.
			return ApplyResult{}, ctx.Err()
		}
	}

	if s.cfg.Window > 0 {
		timer := time.NewTimer(s.cfg.Window)
		<-timer.C
	}
	s.mu.Lock()
	s.forming = nil // later writers start the next commit
	s.pendingOps -= len(c.ops)
	s.mu.Unlock()

	s.applyMu.Lock()
	c.res, c.err = s.applyCommit(context.WithoutCancel(ctx), c.ops)
	s.applyMu.Unlock()
	c.res.Requests = c.requests
	close(c.done)
	return c.res, c.err
}

// applyCommit builds and publishes the snapshot for one batch. Caller
// holds applyMu (serializing writers); mu is taken only around the
// snapshot swap, so readers stay wait-free. ctx is the leader's, without
// its cancellation: the commit finishes for the followers riding on it,
// under the leader's worker cap.
func (s *Store) applyCommit(ctx context.Context, ops []EdgeOp) (ApplyResult, error) {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return ApplyResult{}, ErrReleased
	}
	prev := s.cur
	s.mu.Unlock()

	view, eff, st := apply(prev.view, ops)
	res := ApplyResult{
		PrevVersion: prev.version,
		Inserted:    st.inserted,
		Deleted:     st.deleted,
		Ignored:     st.ignored,
	}
	if len(eff) == 0 {
		// Every op was a no-op: keep the current snapshot, spend no
		// version. Replays and duplicate deliveries cost nothing.
		res.Version = prev.version
		res.Vertices = prev.view.NumVertices()
		res.Edges = prev.view.NumEdges()
		s.mu.Lock()
		s.stats.Batches++
		s.stats.Ignored += st.ignored
		s.mu.Unlock()
		return res, nil
	}

	if ov, ok := view.(*overlay); ok {
		if t := s.cfg.compactThreshold(ov.m); t > 0 && ov.churn >= t {
			s.mu.Lock()
			s.compacting = true
			s.mu.Unlock()
			csr, err := Materialize(ctx, ov)
			s.mu.Lock()
			s.compacting = false
			s.mu.Unlock()
			if err != nil {
				return ApplyResult{}, fmt.Errorf("delta: compaction failed: %w", err)
			}
			view = csr
			res.Compacted = true
		}
	}

	version := prev.version + 1
	if s.cfg.NextVersion != nil {
		version = s.cfg.NextVersion()
	}
	res.Version = version
	res.Vertices = view.NumVertices()
	res.Edges = view.NumEdges()

	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return ApplyResult{}, ErrReleased
	}
	s.cur = &pinnedView{view: view, version: version}
	s.version = version
	s.stats.Batches++
	s.stats.Inserted += st.inserted
	s.stats.Deleted += st.deleted
	s.stats.Ignored += st.ignored
	if res.Compacted {
		s.stats.Compactions++
	}
	if depth := s.cfg.historyDepth(); depth > 0 {
		s.history = append(s.history, AppliedBatch{
			FromVersion: prev.version, ToVersion: version,
			Ops:  eff,
			OldN: prev.view.NumVertices(), NewN: view.NumVertices(),
		})
		if len(s.history) > depth {
			s.history = s.history[len(s.history)-depth:]
		}
	}
	s.mu.Unlock()
	return res, nil
}

// opsBetween returns the concatenated effective ops moving version from
// to version to, when the history still covers that range contiguously.
func (s *Store) opsBetween(from, to uint64) ([]EdgeOp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from == to {
		return nil, true
	}
	var ops []EdgeOp
	cur := from
	for _, b := range s.history {
		if b.FromVersion == cur {
			ops = append(ops, b.Ops...)
			cur = b.ToVersion
			if cur == to {
				return ops, true
			}
		}
	}
	return nil, false
}
