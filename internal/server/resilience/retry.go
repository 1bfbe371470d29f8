package resilience

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// IsTransient reports whether err is worth retrying: a fault expected to
// clear on its own, as opposed to a permanent one (file not found, parse
// error) that retrying can only amplify. That is a self-declared temporary
// error (net errors) or a truncated read (io.ErrUnexpectedEOF — the shape
// of reading a file mid-replacement).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var tmp interface{ Temporary() bool }
	if errors.As(err, &tmp) && tmp.Temporary() {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF)
}

// Budget is a token bucket shared by every retry loop in the server: a
// retry spends one token, and when the bucket is dry failures surface
// immediately instead of retrying. The budget is what keeps a
// persistent fault (disk gone, not blipping) from turning every
// request into MaxAttempts requests — a self-inflicted retry storm.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	refill float64 // tokens per second
	last   time.Time

	spent  atomic.Int64
	denied atomic.Int64
}

// NewBudget builds a budget holding up to max tokens, refilling at
// refillPerSec (<= 0 selects max/10 per second, i.e. a drained budget
// fully recovers in ten seconds). max <= 0 returns nil: a nil *Budget
// means no retries at all.
func NewBudget(max float64, refillPerSec float64) *Budget {
	if max <= 0 {
		return nil
	}
	if refillPerSec <= 0 {
		refillPerSec = max / 10
	}
	return &Budget{tokens: max, max: max, refill: refillPerSec, last: time.Now()}
}

// Take spends one token, reporting whether the budget allowed it.
// A nil budget never allows.
func (b *Budget) Take() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.refill
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.last = now
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if ok {
		b.spent.Add(1)
	} else {
		b.denied.Add(1)
	}
	return ok
}

// BudgetStats is the budget's counter snapshot.
type BudgetStats struct {
	// RetryBudgetSpent counts retries the budget paid for.
	RetryBudgetSpent int64 `json:"retry_budget_spent"`
	// RetryBudgetDenied counts retries refused because the bucket was dry.
	RetryBudgetDenied int64 `json:"retry_budget_denied"`
}

// Stats snapshots the counters (nil budget snapshots to zero).
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	return BudgetStats{RetryBudgetSpent: b.spent.Load(), RetryBudgetDenied: b.denied.Load()}
}

// RetryConfig shapes a Do loop's backoff.
type RetryConfig struct {
	// MaxAttempts bounds total attempts (first try included); <= 1
	// means no retries.
	MaxAttempts int
	// BaseDelay is the first backoff; each further retry doubles it,
	// capped at MaxDelay. Every delay is jittered to [d/2, d) so
	// synchronized failures do not retry in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Do runs fn, retrying transient failures (per IsTransient) with
// jittered exponential backoff while attempts remain, the budget grants
// tokens, and ctx is alive. The returned error is the last attempt's.
func Do(ctx context.Context, budget *Budget, cfg RetryConfig, fn func() error) error {
	delay := cfg.BaseDelay
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	maxDelay := cfg.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !IsTransient(err) || attempt >= cfg.MaxAttempts {
			return err
		}
		if !budget.Take() {
			return err
		}
		// Jitter to [delay/2, delay).
		d := delay/2 + rand.N(delay/2+1)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return err
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}
