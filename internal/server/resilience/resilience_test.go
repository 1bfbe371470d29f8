package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestShedderFastPathAndQueueFull(t *testing.T) {
	s := NewShedder(ShedderConfig{Capacity: 2, QueueWait: 20 * time.Millisecond, Target: time.Second})
	d1 := s.Admit(context.Background(), "a")
	d2 := s.Admit(context.Background(), "a")
	if !d1.OK || !d2.OK {
		t.Fatal("queries within capacity were not admitted")
	}
	// Third same-tenant query: fair share does not bind (single
	// tenant), EWMAs are cold, so it queues the full window and sheds.
	start := time.Now()
	d3 := s.Admit(context.Background(), "a")
	if d3.OK || d3.Reason != ShedQueueFull {
		t.Fatalf("over-capacity query: %+v, want queue_full shed", d3)
	}
	if w := time.Since(start); w < 15*time.Millisecond {
		t.Fatalf("queue_full shed after %v, want the full queue window", w)
	}
	if d3.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", d3.RetryAfter)
	}
	// Release one slot; the next query admits instantly.
	d1.Release()
	d1.Release() // idempotent
	if d4 := s.Admit(context.Background(), "b"); !d4.OK {
		t.Fatalf("query after release: %+v, want admitted", d4)
	} else {
		d4.Release()
	}
	d2.Release()
	st := s.Stats()
	if st.Shed != 1 || st.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v, want exactly one queue_full shed", st)
	}
	if st.ActiveTenants != 0 {
		t.Fatalf("active tenants = %d after all releases, want 0", st.ActiveTenants)
	}
}

func TestShedderOverload(t *testing.T) {
	s := NewShedder(ShedderConfig{Capacity: 1, QueueWait: 50 * time.Millisecond, Target: 10 * time.Millisecond})
	// Teach the controller that queries are slow: latency EWMA far past
	// the target means even one queued query predicts an SLO miss.
	for i := 0; i < 20; i++ {
		s.RecordLatency(500 * time.Millisecond)
	}
	d1 := s.Admit(context.Background(), "a")
	if !d1.OK {
		t.Fatal("first query not admitted")
	}
	defer d1.Release()
	start := time.Now()
	d2 := s.Admit(context.Background(), "a")
	if d2.OK || d2.Reason != ShedOverload {
		t.Fatalf("overloaded admit: %+v, want overload shed", d2)
	}
	if w := time.Since(start); w > 20*time.Millisecond {
		t.Fatalf("overload shed took %v — it must not queue first", w)
	}
	if s.Stats().ShedOverload != 1 {
		t.Fatalf("stats = %+v, want one overload shed", s.Stats())
	}
}

func TestShedderTenantFairShare(t *testing.T) {
	s := NewShedder(ShedderConfig{Capacity: 2, QueueWait: 50 * time.Millisecond, Target: time.Second})
	// Tenant "hog" takes every slot.
	h1 := s.Admit(context.Background(), "hog")
	h2 := s.Admit(context.Background(), "hog")
	if !h1.OK || !h2.OK {
		t.Fatal("hog's first queries not admitted")
	}
	// Tenant "small" shows up: it queues (not tenant-shed), and once a
	// slot frees it gets in.
	got := make(chan Decision, 1)
	go func() {
		got <- s.Admit(context.Background(), "small")
	}()
	time.Sleep(5 * time.Millisecond) // let small start queueing
	// Now the hog asks for more while another tenant is active: with 2
	// tenants its fair share is 1 slot, it holds 2, so it is shed
	// immediately.
	start := time.Now()
	h3 := s.Admit(context.Background(), "hog")
	if h3.OK || h3.Reason != ShedTenant {
		t.Fatalf("hog over fair share: %+v, want tenant_share shed", h3)
	}
	if w := time.Since(start); w > 20*time.Millisecond {
		t.Fatalf("tenant shed took %v — it must not queue first", w)
	}
	h1.Release()
	d := <-got
	if !d.OK {
		t.Fatalf("small tenant's queued query: %+v, want admitted after hog released", d)
	}
	d.Release()
	h2.Release()
	if st := s.Stats(); st.ShedTenant != 1 {
		t.Fatalf("stats = %+v, want one tenant_share shed", st)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreakers(3, 30*time.Millisecond)
	key := BreakerKey{Algo: "bfs", Graph: "g"}

	// Two failures: still closed (threshold is 3).
	for i := 0; i < 2; i++ {
		if ok, probe, _ := b.Allow(key); !ok || probe {
			t.Fatalf("closed breaker refused request %d (or marked it a probe)", i)
		}
		b.Record(key, OutcomeFailure, false)
	}
	// A success resets the streak.
	b.Record(key, OutcomeSuccess, false)
	for i := 0; i < 2; i++ {
		b.Record(key, OutcomeFailure, false)
	}
	if ok, _, _ := b.Allow(key); !ok {
		t.Fatal("breaker opened below threshold (success did not reset the streak)")
	}
	// Third consecutive failure opens it.
	b.Record(key, OutcomeFailure, false)
	ok, _, retry := b.Allow(key)
	if ok {
		t.Fatal("open breaker allowed a request")
	}
	if retry <= 0 || retry > 30*time.Millisecond {
		t.Fatalf("open breaker retryAfter = %v, want (0, cooldown]", retry)
	}
	if got := b.Stats(); got.BreakerOpen != 1 || got.OpenNow != 1 {
		t.Fatalf("stats after open = %+v", got)
	}
	// Other keys are unaffected.
	if ok, _, _ := b.Allow(BreakerKey{Algo: "pagerank", Graph: "g"}); !ok {
		t.Fatal("unrelated breaker tripped")
	}

	// After the cooldown: exactly one probe is admitted; a second
	// request is refused while the probe is in flight.
	time.Sleep(35 * time.Millisecond)
	if ok, probe, _ := b.Allow(key); !ok || !probe {
		t.Fatal("cooled-down breaker did not admit a probe")
	}
	if ok, _, _ := b.Allow(key); ok {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// A stale request admitted before the breaker opened settles while
	// the probe is in flight: it must not release the probe's slot.
	b.Record(key, OutcomeAborted, false)
	if ok, _, _ := b.Allow(key); ok {
		t.Fatal("a stale non-probe record released the in-flight probe's slot")
	}
	// Probe fails: straight back to open.
	b.Record(key, OutcomeFailure, true)
	if ok, _, _ := b.Allow(key); ok {
		t.Fatal("breaker closed after a failed probe")
	}
	time.Sleep(35 * time.Millisecond)
	if ok, probe, _ := b.Allow(key); !ok || !probe {
		t.Fatal("second probe window did not open")
	}
	// An aborted probe (cached reply, client disconnect, short
	// client-chosen deadline) releases the slot without closing the
	// breaker; the very next request becomes the new probe.
	b.Record(key, OutcomeAborted, true)
	if ok, probe, _ := b.Allow(key); !ok || !probe {
		t.Fatal("aborted probe did not release the probe slot")
	}
	// Successful probe closes it.
	b.Record(key, OutcomeSuccess, true)
	if ok, probe, _ := b.Allow(key); !ok || probe {
		t.Fatal("breaker not closed after successful probe")
	}
	if st := b.Stats(); st.OpenNow != 0 || st.BreakerHalfopenProbes < 3 {
		t.Fatalf("final stats = %+v, want closed with >= 3 probes", st)
	}
	if got := b.States(); len(got) != 0 {
		t.Fatalf("States() after recovery = %+v, want empty", got)
	}
}

func TestBreakersDisabled(t *testing.T) {
	b := NewBreakers(0, time.Second)
	key := BreakerKey{Algo: "bfs", Graph: "g"}
	for i := 0; i < 100; i++ {
		b.Record(key, OutcomeFailure, false)
	}
	if ok, _, _ := b.Allow(key); !ok {
		t.Fatal("disabled breakers refused a request")
	}
	var nilB *Breakers
	if ok, _, _ := nilB.Allow(key); !ok {
		t.Fatal("nil Breakers refused a request")
	}
	nilB.Record(key, OutcomeFailure, false)
}

func TestWatchdogTripAndClear(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	log := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		logged = append(logged, string(p))
		mu.Unlock()
		return len(p), nil
	}), nil))
	w := NewWatchdog(10*time.Millisecond, log)

	// A query finishing in time never trips.
	id := w.Watch("g", "bfs", time.Now().Add(20*time.Millisecond))
	w.Done(id)
	time.Sleep(50 * time.Millisecond)
	if w.Trips() != 0 {
		t.Fatalf("trips = %d after a clean query, want 0", w.Trips())
	}

	// An unbounded query is not watched at all.
	if id := w.Watch("g", "bfs", time.Time{}); id != 0 {
		t.Fatalf("zero-deadline Watch returned id %d, want 0", id)
	}

	// A query stuck past deadline+grace trips exactly once, with a
	// stack dump in the log.
	id = w.Watch("g", "pagerank", time.Now().Add(5*time.Millisecond))
	deadline := time.Now().Add(2 * time.Second)
	for w.Trips() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", w.Trips())
	}
	time.Sleep(50 * time.Millisecond)
	if w.Trips() != 1 {
		t.Fatalf("trips = %d after settling, want exactly 1 (no re-trip)", w.Trips())
	}
	w.Done(id)
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 {
		t.Fatal("trip produced no log line")
	}
	joined := fmt.Sprint(logged)
	for _, want := range []string{"WATCHDOG TRIP", "pagerank", "goroutine"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trip log missing %q", want)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRetryDo(t *testing.T) {
	t.Run("transient failures retry to success", func(t *testing.T) {
		budget := NewBudget(10, 1000)
		calls := 0
		err := Do(context.Background(), budget, RetryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond}, func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("blip: %w", io.ErrUnexpectedEOF)
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Fatalf("err = %v, calls = %d; want success on call 3", err, calls)
		}
		if st := budget.Stats(); st.RetryBudgetSpent != 2 {
			t.Fatalf("budget stats = %+v, want 2 spent", st)
		}
	})
	t.Run("permanent errors never retry", func(t *testing.T) {
		calls := 0
		perm := errors.New("no such file")
		err := Do(context.Background(), NewBudget(10, 1000), RetryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond}, func() error {
			calls++
			return perm
		})
		if !errors.Is(err, perm) || calls != 1 {
			t.Fatalf("err = %v, calls = %d; want single attempt", err, calls)
		}
	})
	t.Run("dry budget stops retries", func(t *testing.T) {
		budget := NewBudget(1, 0.0001)
		calls := 0
		err := Do(context.Background(), budget, RetryConfig{MaxAttempts: 10, BaseDelay: time.Millisecond}, func() error {
			calls++
			return fmt.Errorf("blip: %w", io.ErrUnexpectedEOF)
		})
		if err == nil || calls != 2 {
			t.Fatalf("err = %v, calls = %d; want 2 attempts (1 budgeted retry)", err, calls)
		}
		if st := budget.Stats(); st.RetryBudgetDenied != 1 {
			t.Fatalf("budget stats = %+v, want 1 denied", st)
		}
	})
	t.Run("nil budget means no retries", func(t *testing.T) {
		calls := 0
		_ = Do(context.Background(), nil, RetryConfig{MaxAttempts: 10, BaseDelay: time.Millisecond}, func() error {
			calls++
			return fmt.Errorf("blip: %w", io.ErrUnexpectedEOF)
		})
		if calls != 1 {
			t.Fatalf("calls = %d, want 1 with a nil budget", calls)
		}
	})
	t.Run("cancelled ctx stops the backoff", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		calls := 0
		start := time.Now()
		_ = Do(ctx, NewBudget(10, 1000), RetryConfig{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}, func() error {
			calls++
			return fmt.Errorf("blip: %w", io.ErrUnexpectedEOF)
		})
		if calls != 1 || time.Since(start) > time.Second {
			t.Fatalf("calls = %d after %v; want immediate stop", calls, time.Since(start))
		}
	})
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{&net.DNSError{IsTemporary: true}, true},
		{fmt.Errorf("wrapped: %w", &net.DNSError{IsTemporary: true}), true},
		{io.ErrUnexpectedEOF, true},
		{fmt.Errorf("loading: %w", io.ErrUnexpectedEOF), true},
		{fs.ErrNotExist, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
