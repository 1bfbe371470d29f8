// Package resilience is ligra-serve's overload-protection subsystem:
// the pieces that keep one replica answering — degraded but alive —
// through traffic spikes, pathological queries, and transient faults.
// It is deliberately HTTP-agnostic (the server layer maps decisions to
// status codes and Retry-After headers) so each piece tests in
// isolation and the future ligra-router tier can reuse the same types.
//
// Four components, composed by internal/server:
//
//   - Shedder: adaptive admission. Replaces a fixed queue-or-reject
//     semaphore with a controller that tracks admission queue wait and
//     per-query slot-occupancy latency (EWMAs) and sheds new work once
//     the observed or predicted wait exceeds a service-level target,
//     with a per-tenant fair share so one hot client cannot starve the
//     rest.
//
//   - Breakers: per-(algorithm, graph) circuit breakers. Consecutive
//     panics or timeouts open a breaker; open breakers fail fast;
//     half-open probes close them once the combination behaves again.
//
//   - Watchdog: a deadline auditor. The cancellation layer is supposed
//     to make "query still running long past its deadline" impossible;
//     the watchdog is the component that proves it in production,
//     force-logging a full stack dump and counting a trip when the
//     invariant breaks.
//
//   - Budget + Do: retry-with-budget for transient faults (graph-load
//     IO blips), with jittered exponential backoff under a global
//     token budget so a persistent fault cannot turn into a retry
//     storm.
package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ewmaAlpha weights each new sample at 20% — heavy enough to react to a
// load shift within a handful of queries, light enough that one slow
// outlier does not flip the shedder.
const ewmaAlpha = 0.2

// ShedReason says why Admit refused a query.
type ShedReason string

const (
	// ShedOverload: the admission controller predicts the queue wait
	// would exceed the service-level target.
	ShedOverload ShedReason = "overload"
	// ShedQueueFull: the query waited the full queue window and no slot
	// freed up.
	ShedQueueFull ShedReason = "queue_full"
	// ShedTenant: the tenant is at or beyond its fair share of slots
	// while the server is saturated and other tenants are active.
	ShedTenant ShedReason = "tenant_share"
	// ShedCancelled: the caller's context ended while queued.
	ShedCancelled ShedReason = "cancelled"
)

// Decision is the outcome of Shedder.Admit. When OK, the caller must
// call Release exactly once after the query finishes; when not OK,
// Reason says why and RetryAfter is the back-off advice to send with
// the 429.
type Decision struct {
	OK         bool
	Reason     ShedReason
	RetryAfter time.Duration
	release    func()
}

// Release frees the admission slot (no-op on a shed decision).
func (d Decision) Release() {
	if d.release != nil {
		d.release()
	}
}

// ShedderConfig parameterizes a Shedder.
type ShedderConfig struct {
	// Capacity is the number of concurrently executing queries.
	Capacity int
	// QueueWait is how long an over-capacity query may wait for a slot.
	QueueWait time.Duration
	// Target is the service-level objective for admission wait: once
	// the observed queue-wait EWMA or the backlog's predicted wait
	// exceeds it, new arrivals are shed immediately instead of queued.
	// <= 0 disables adaptive shedding (the queue window alone decides).
	Target time.Duration
}

// Shedder is the adaptive admission controller. The semaphore bounds
// concurrency exactly as before; what is new is that the controller
// measures how long queries queue and how long they hold a slot, and
// refuses work early — with honest Retry-After advice — once those
// signals say the queue window is a lie.
//
// Recovery is built into the control loop's shape: shedding decisions
// are only consulted when the fast-path acquire fails, so the moment
// load drops and slots free up, arrivals admit instantly and their
// zero-wait samples decay the EWMA back below the target.
type Shedder struct {
	cfg ShedderConfig
	sem chan struct{}

	mu        sync.Mutex
	queueWait float64        // EWMA of admission wait, milliseconds
	latency   float64        // EWMA of slot-occupancy time, milliseconds
	waiting   int            // queries currently queued for a slot
	holding   map[string]int // admitted in-flight queries per tenant
	queued    map[string]int // queued (not yet admitted) queries per tenant

	shedOverload atomic.Int64
	shedQueue    atomic.Int64
	shedTenant   atomic.Int64
}

// NewShedder builds a Shedder; Capacity must be positive.
func NewShedder(cfg ShedderConfig) *Shedder {
	return &Shedder{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Capacity),
		holding: make(map[string]int),
		queued:  make(map[string]int),
	}
}

// Admit decides whether a query from tenant may execute, blocking up to
// the queue window when the server is busy but not (yet) overloaded.
func (s *Shedder) Admit(ctx context.Context, tenant string) Decision {
	// Fast path: a free slot admits anyone — fair share and overload
	// only bind under contention (the controller is work-conserving).
	select {
	case s.sem <- struct{}{}:
		s.recordWait(0)
		return s.admitted(tenant)
	default:
	}

	s.mu.Lock()
	// Fair share: when saturated and another tenant is active (holding
	// a slot or waiting for one), a tenant already holding its share of
	// slots is shed so the freed slots can drain other tenants' queues.
	// A tenant queued behind its own traffic is its own problem; a
	// tenant queued behind someone else's is what this rule prevents.
	if n := s.activeTenantsLocked(tenant); n > 1 {
		share := s.cfg.Capacity / n
		if share < 1 {
			share = 1
		}
		if s.holding[tenant] >= share {
			s.mu.Unlock()
			s.shedTenant.Add(1)
			return Decision{Reason: ShedTenant, RetryAfter: s.RetryAfter()}
		}
	}
	// Overload: shed rather than queue when waits are already past the
	// target, or Little's law over the backlog predicts they will be.
	if t := float64(s.cfg.Target.Milliseconds()); s.cfg.Target > 0 {
		predicted := s.queueWait
		if s.cfg.Capacity > 0 {
			if backlog := float64(s.waiting+1) * s.latency / float64(s.cfg.Capacity); backlog > predicted {
				predicted = backlog
			}
		}
		if predicted > t {
			s.mu.Unlock()
			s.shedOverload.Add(1)
			return Decision{Reason: ShedOverload, RetryAfter: s.RetryAfter()}
		}
	}
	s.waiting++
	s.queued[tenant]++
	s.mu.Unlock()

	start := time.Now()
	var timeout <-chan time.Time
	if s.cfg.QueueWait > 0 {
		t := time.NewTimer(s.cfg.QueueWait)
		defer t.Stop()
		timeout = t.C
	}
	defer func() {
		s.mu.Lock()
		s.waiting--
		if s.queued[tenant]--; s.queued[tenant] <= 0 {
			delete(s.queued, tenant)
		}
		s.mu.Unlock()
	}()
	if timeout == nil {
		// No queue window: the fast path already failed, so shed now.
		s.recordWait(0)
		s.shedQueue.Add(1)
		return Decision{Reason: ShedQueueFull, RetryAfter: s.RetryAfter()}
	}
	select {
	case s.sem <- struct{}{}:
		s.recordWait(time.Since(start))
		return s.admitted(tenant)
	case <-timeout:
		s.recordWait(s.cfg.QueueWait)
		s.shedQueue.Add(1)
		return Decision{Reason: ShedQueueFull, RetryAfter: s.RetryAfter()}
	case <-ctx.Done():
		s.recordWait(time.Since(start))
		return Decision{Reason: ShedCancelled, RetryAfter: s.RetryAfter()}
	}
}

// admitted registers the tenant and builds the OK decision (the slot is
// already held).
func (s *Shedder) admitted(tenant string) Decision {
	s.mu.Lock()
	s.holding[tenant]++
	s.mu.Unlock()
	var once sync.Once
	return Decision{OK: true, release: func() {
		once.Do(func() {
			s.mu.Lock()
			if s.holding[tenant]--; s.holding[tenant] <= 0 {
				delete(s.holding, tenant)
			}
			s.mu.Unlock()
			<-s.sem
		})
	}}
}

// activeTenantsLocked counts distinct tenants holding or waiting for a
// slot, including the given (about-to-queue) one. Caller holds s.mu.
func (s *Shedder) activeTenantsLocked(tenant string) int {
	n := len(s.holding)
	if s.holding[tenant] == 0 && s.queued[tenant] == 0 {
		n++ // the requester itself
	}
	for t := range s.queued {
		if s.holding[t] == 0 {
			n++
		}
	}
	return n
}

// RecordLatency feeds one query's slot-occupancy time into the latency
// EWMA (the drain-rate signal behind the overload prediction).
func (s *Shedder) RecordLatency(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	s.mu.Lock()
	s.latency += ewmaAlpha * (ms - s.latency)
	s.mu.Unlock()
}

func (s *Shedder) recordWait(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	s.mu.Lock()
	s.queueWait += ewmaAlpha * (ms - s.queueWait)
	s.mu.Unlock()
}

// RetryAfter is the back-off advice for a shed query: roughly one
// expected query latency, never less than a second (429 Retry-After has
// one-second resolution).
func (s *Shedder) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(time.Duration(s.latency)*time.Millisecond, time.Second)
}

// ShedderStats is the shedder's counter snapshot.
type ShedderStats struct {
	// Shed is the total queries refused, split by reason below.
	Shed          int64 `json:"shed"`
	ShedOverload  int64 `json:"shed_overload"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedTenant    int64 `json:"shed_tenant_share"`
	// QueueWaitEwmaMs and LatencyEwmaMs are the live control signals.
	QueueWaitEwmaMs float64 `json:"queue_wait_ewma_ms"`
	LatencyEwmaMs   float64 `json:"latency_ewma_ms"`
	// ActiveTenants is the number of tenants with in-flight queries.
	ActiveTenants int `json:"active_tenants"`
}

// Stats snapshots the counters.
func (s *Shedder) Stats() ShedderStats {
	ov, qf, tn := s.shedOverload.Load(), s.shedQueue.Load(), s.shedTenant.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShedderStats{
		Shed:            ov + qf + tn,
		ShedOverload:    ov,
		ShedQueueFull:   qf,
		ShedTenant:      tn,
		QueueWaitEwmaMs: s.queueWait,
		LatencyEwmaMs:   s.latency,
		ActiveTenants:   len(s.holding),
	}
}
