// Package server implements ligra-serve's long-running graph analytics
// service: a registry of named resident graphs, a query engine that
// dispatches to the shared algorithm table (internal/algo.Runners) through
// the cancellation layer, bounded admission, and built-in observability
// (request logging, /healthz, /metrics).
//
// The serving model follows the shape that systems moving Ligra-style
// processing online converge on (BLADYG and the streaming-framework
// deployments surveyed by Besta et al.): graphs stay loaded in shared
// memory, queries arrive over an API, and every query is bounded — by a
// deadline (cooperative cancellation from PR 1), by an admission
// semaphore, and by panic containment so one bad query cannot take down
// the process.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ligra/internal/delta"
	"ligra/internal/graph"
	"ligra/internal/parallel"
	"ligra/internal/server/resilience"
)

// Registry errors. Handlers map these to HTTP statuses.
var (
	// ErrNotFound reports a name with no registered graph.
	ErrNotFound = errors.New("graph not found")
	// ErrConflict reports a load whose name is already registered with a
	// different source specification.
	ErrConflict = errors.New("graph name already registered with a different source")
)

// GraphInfo is the JSON-friendly description of one registered graph.
type GraphInfo struct {
	Name       string    `json:"name"`
	Source     string    `json:"source"`
	Loading    bool      `json:"loading,omitempty"`
	LoadedAt   time.Time `json:"loaded_at"`
	LoadMillis float64   `json:"load_ms,omitempty"`
	Vertices   int       `json:"vertices"`
	Edges      int64     `json:"edges"`
	Symmetric  bool      `json:"symmetric"`
	Weighted   bool      `json:"weighted"`
	// Format names the resident backend: "csr" for the uncompressed CSR
	// representation, "compressed" for heap-resident byte codes,
	// "compressed+mmap" when the byte codes are memory-mapped.
	Format      string `json:"format"`
	MemoryBytes int64  `json:"memory_bytes"`
	// MappedBytes is the size of the backing memory-mapped region (0 for
	// heap-resident graphs); those bytes live in the page cache, not the
	// process heap, so MemoryBytes excludes them.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// DefaultSource is the highest-out-degree vertex, used when a query
	// does not name a source.
	DefaultSource uint32 `json:"default_source"`
	// Generation counts how many times this name has been (re)loaded; it
	// survives eviction, so a replaced graph always carries a higher
	// generation than the one it displaced. Result-cache keys include it,
	// which is what makes a cached result provably from this residency.
	Generation uint64 `json:"generation"`
	// SnapshotVersion is the version of the graph's current snapshot. It
	// starts at Generation and advances through the same per-name counter
	// on every applied /update batch, so versions and load generations
	// form one strictly increasing sequence — a result cached under any
	// version key is provably from exactly that snapshot.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// PinnedReaders is how many in-flight queries currently hold a pin on
	// one of this graph's snapshots.
	PinnedReaders int64 `json:"pinned_readers"`
	// Compacting reports that an update batch is currently materializing
	// a flat CSR snapshot; the graph keeps serving its current snapshot
	// throughout.
	Compacting bool `json:"compacting,omitempty"`
	// DirtyRows is how many adjacency rows the current snapshot overlays
	// on its base (0 once compaction has caught up).
	DirtyRows int `json:"dirty_rows,omitempty"`
}

type regEntry struct {
	// ready is closed when the load (in the goroutine of the first
	// requester) finishes; g/store/err are immutable afterwards. info is
	// republished under Registry.mu when update batches change the
	// graph's shape, so reads of it always take the lock.
	ready  chan struct{}
	source string
	g      graph.View
	// store owns the graph's snapshot versions, pins, and update log;
	// nil while loading and on entries evicted mid-load.
	store *delta.Store
	err   error
	info  GraphInfo
}

// Registry is the set of named resident graphs. Loads of the same name
// and source are single-flight: concurrent requesters share one read, and
// repeat loads return the already-resident graph without touching disk.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	// gens is the per-name load counter behind GraphInfo.Generation. It
	// is never deleted from — an evicted name keeps its counter so a
	// reload gets a strictly larger generation.
	gens map[string]uint64

	// retryBudget/retryCfg, when set, make builds retry transient
	// failures (per resilience.IsTransient) with jittered backoff, so
	// an IO blip during an evict+reload never surfaces to clients. A
	// nil budget means no retries.
	retryBudget *resilience.Budget
	retryCfg    resilience.RetryConfig

	// updatePolicy parameterizes each graph's delta store (group-commit
	// window, pending-op budget, compaction threshold). New sets it and
	// the retry fields before serving; nothing synchronizes them with
	// in-flight loads.
	updatePolicy delta.Policy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry), gens: make(map[string]uint64)}
}

// nextGen advances name's generation counter. It backs both load
// generations and snapshot versions, so the two share one strictly
// increasing sequence per name.
func (r *Registry) nextGen(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gens[name]++
	return r.gens[name]
}

// Load registers name, building the graph with build if it is not already
// resident. source is the canonical description of where the graph comes
// from: a second load of the same name joins the in-flight (or completed)
// load when the sources match and fails with ErrConflict when they
// differ. The first requester runs build on its own goroutine; everyone
// blocks until the load settles or ctx is done. A failed build is
// forgotten so it can be retried.
func (r *Registry) Load(ctx context.Context, name, source string, build func() (graph.View, error)) (GraphInfo, error) {
	r.mu.Lock()
	if e, ok := r.entries[name]; ok {
		r.mu.Unlock()
		if e.source != source {
			return GraphInfo{}, fmt.Errorf("%w: %q is %s", ErrConflict, name, e.source)
		}
		return r.wait(ctx, e)
	}
	r.gens[name]++
	gen := r.gens[name]
	e := &regEntry{ready: make(chan struct{}), source: source}
	e.info = GraphInfo{Name: name, Source: source, Loading: true, Generation: gen}
	r.entries[name] = e
	r.mu.Unlock()

	start := time.Now()
	// The build retries transient failures under the registry's budget
	// (a nil budget never grants one). ctx bounds the backoff sleeps (the
	// first requester's context): if the requester gives up mid-backoff,
	// the load fails and the entry is forgotten, so the name stays
	// retryable.
	var g graph.View
	err := resilience.Do(ctx, r.retryBudget, r.retryCfg, func() (err error) {
		g, err = build()
		return err
	})
	if err != nil {
		e.err = fmt.Errorf("loading %q: %w", name, err)
		r.mu.Lock()
		// Forget the failure, unless an evict+reload already replaced us.
		if r.entries[name] == e {
			delete(r.entries, name)
		}
		r.mu.Unlock()
		close(e.ready)
		return GraphInfo{}, e.err
	}
	e.g = g
	store := delta.NewStore(g, delta.Config{
		Policy:         r.updatePolicy,
		InitialVersion: gen,
		NextVersion:    func() uint64 { return r.nextGen(name) },
	})
	info := describe(name, source, g)
	info.Generation = gen
	info.SnapshotVersion = gen
	info.LoadedAt = start
	info.LoadMillis = float64(time.Since(start).Microseconds()) / 1000
	// Publish the final info under the registry lock: List reads e.info
	// of still-loading entries (the Loading placeholder), so this write
	// must be synchronized with those reads, not just with the ready
	// channel's close. An evict that raced the load wins: the store is
	// released immediately (it can have no pins yet) and the entry stays
	// unregistered.
	r.mu.Lock()
	alive := r.entries[name] == e
	if alive {
		e.store = store
	}
	e.info = info
	r.mu.Unlock()
	if !alive {
		store.Release()
	}
	close(e.ready)
	return info, nil
}

// wait blocks until e settles or ctx is done.
func (r *Registry) wait(ctx context.Context, e *regEntry) (GraphInfo, error) {
	select {
	case <-e.ready:
		r.mu.Lock()
		info := e.info
		r.mu.Unlock()
		return info, e.err
	case <-ctx.Done():
		return GraphInfo{}, ctx.Err()
	}
}

// resident waits for name's load to settle and returns its entry, its
// listing and its delta store. A name that is not registered, or whose
// load left no store (evicted mid-load), is ErrNotFound.
func (r *Registry) resident(ctx context.Context, name string) (*regEntry, GraphInfo, *delta.Store, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return nil, GraphInfo{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	info, err := r.wait(ctx, e)
	if err != nil {
		return nil, info, nil, err
	}
	r.mu.Lock()
	store := e.store
	r.mu.Unlock()
	if store == nil {
		return nil, GraphInfo{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, info, store, nil
}

// Get returns the named resident graph's base view, blocking on an
// in-flight load until it settles or ctx is done. The base view does not
// include applied update batches — query paths should Acquire a pinned
// snapshot instead.
func (r *Registry) Get(ctx context.Context, name string) (graph.View, GraphInfo, error) {
	e, info, _, err := r.resident(ctx, name)
	if err != nil {
		return nil, info, err
	}
	return e.g, info, nil
}

// Acquire pins the named graph's current snapshot for a reader: the
// returned pin's view stays valid — including its backing mmap — until
// the pin is released, even across eviction. Blocks on an in-flight load
// until it settles or ctx is done.
func (r *Registry) Acquire(ctx context.Context, name string) (*delta.Pin, GraphInfo, error) {
	_, info, store, err := r.resident(ctx, name)
	if err != nil {
		return nil, info, err
	}
	pin, err := store.Acquire()
	if err != nil {
		// Evicted between lookup and pin: same answer as never registered.
		return nil, GraphInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return pin, info, nil
}

// Update applies an edge batch to the named graph through its delta
// store's group commit, then refreshes the listing so /graphs and
// /metrics reflect the new snapshot. Fails with ErrNotFound for unknown
// or evicted names and delta.ErrBusy when the update backlog is full.
func (r *Registry) Update(ctx context.Context, name string, ops []delta.EdgeOp) (delta.ApplyResult, error) {
	e, _, store, err := r.resident(ctx, name)
	if err != nil {
		return delta.ApplyResult{}, err
	}
	res, err := store.Update(ctx, ops)
	if err != nil {
		if errors.Is(err, delta.ErrReleased) {
			err = fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return res, err
	}
	if res.Version != res.PrevVersion {
		view, _ := store.Current()
		r.mu.Lock()
		// SnapshotVersion orders concurrent refreshes: a commit that
		// settled late must not clobber the listing with older numbers.
		if r.entries[name] == e && res.Version > e.info.SnapshotVersion {
			e.info.SnapshotVersion = res.Version
			e.info.Vertices = res.Vertices
			e.info.Edges = res.Edges
			e.info.Format, e.info.MemoryBytes, e.info.MappedBytes = probe(view)
		}
		r.mu.Unlock()
	}
	return res, nil
}

// Evict removes the named graph, reporting whether it was registered. An
// in-flight load is unregistered immediately; its requesters still
// receive the load's outcome. The graph's backend is closed (unmapping
// an mmap-backed graph) as soon as the last pinned reader detaches — an
// in-flight query never observes its snapshot disappearing.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	var store *delta.Store
	if ok {
		store = e.store
	}
	r.mu.Unlock()
	if store != nil {
		store.Release()
	}
	return ok
}

// List returns every registered graph (including in-flight loads, marked
// Loading) sorted by name, with live snapshot gauges (version, pinned
// readers, compaction state) filled from each graph's delta store.
func (r *Registry) List() []GraphInfo {
	// e.info is either the Loading placeholder or the final description;
	// both are published under r.mu, so one locked pass copies them
	// race-free (a still-loading entry simply lists as its placeholder).
	// Store gauges are read after unlocking — store methods are never
	// called under r.mu.
	r.mu.Lock()
	infos := make([]GraphInfo, 0, len(r.entries))
	stores := make([]*delta.Store, 0, len(r.entries))
	for _, e := range r.entries {
		infos = append(infos, e.info)
		stores = append(stores, e.store)
	}
	r.mu.Unlock()
	for i, st := range stores {
		if st == nil {
			continue
		}
		g := st.Gauges()
		infos[i].SnapshotVersion = g.Version
		infos[i].PinnedReaders = g.PinnedReaders
		infos[i].Compacting = g.Compacting
		infos[i].DirtyRows = g.DirtyRows
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// UpdateStats aggregates every resident graph's update counters for the
// /metrics "updates" block.
func (r *Registry) UpdateStats() delta.Stats {
	r.mu.Lock()
	stores := make([]*delta.Store, 0, len(r.entries))
	for _, e := range r.entries {
		if e.store != nil {
			stores = append(stores, e.store)
		}
	}
	r.mu.Unlock()
	var total delta.Stats
	for _, st := range stores {
		total.Add(st.Stats())
	}
	return total
}

// describe builds the registry's listing entry for a loaded graph.
func describe(name, source string, g graph.View) GraphInfo {
	info := GraphInfo{
		Name:      name,
		Source:    source,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Symmetric: g.Symmetric(),
		Weighted:  g.Weighted(),
	}
	info.Format, info.MemoryBytes, info.MappedBytes = probe(g)
	if n := g.NumVertices(); n > 0 {
		// Ties go to the smallest ID, as in ligra-run's default source. A
		// Background ctx never cancels, the only way MaxIndexFunc fails.
		v, _ := parallel.MaxIndexFunc(context.Background(), n, func(v int) int { return g.OutDegree(uint32(v)) })
		info.DefaultSource = uint32(v)
	}
	return info
}

// probe reads a view's backend name, heap footprint and mmap residency.
// The registry hosts any graph.View, so they come from the optional
// interfaces the backends implement (the CSR *graph.Graph reports format
// "csr" and no mapped bytes).
func probe(g graph.View) (format string, memory, mapped int64) {
	format = "csr"
	if f, ok := g.(interface{ FormatName() string }); ok {
		format = f.FormatName()
	}
	if f, ok := g.(interface{ MemoryFootprint() int64 }); ok {
		memory = f.MemoryFootprint()
	}
	if f, ok := g.(interface{ MappedBytes() int64 }); ok {
		mapped = f.MappedBytes()
	}
	return format, memory, mapped
}
