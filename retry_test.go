package vflmarket

// Unit tests of the client resilience primitives: the per-address circuit
// breaker's state machine, the seeded-jitter retry schedule and the retry
// loop every client call runs. The
// service-level behavior (a breaker tripping under injected resets, the
// resume loop riding a failover) lives in chaos_service_test.go and
// cluster_failover_test.go; these tests pin the state transitions and the
// determinism contract in isolation.

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"
	"time"
)

// TestBreakerStateMachine walks one breaker through its whole lifecycle:
// closed under sub-threshold failures, tripped open at the threshold,
// fast-failing through the cooldown, half-open admitting exactly one
// probe, re-opening on probe failure, and closing on probe success.
func TestBreakerStateMachine(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	b := newBreaker(BreakerPolicy{Threshold: 3, Cooldown: cooldown})

	if b.state != BreakerClosed {
		t.Fatalf("fresh breaker state %q, want closed", b.state)
	}
	// Sub-threshold failures keep it closed; a success resets the count.
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("closed breaker refused dial %d: %v", i, err)
		}
		b.failure()
	}
	b.success()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("after success: state %q fails %d, want closed/0", b.state, b.fails)
	}

	// Threshold consecutive failures trip it open.
	for i := 0; i < 3; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("dial %d refused before threshold: %v", i, err)
		}
		b.failure()
	}
	if b.state != BreakerOpen || b.trips != 1 {
		t.Fatalf("at threshold: state %q trips %d, want open/1", b.state, b.trips)
	}
	// Open: fast-fail without a network touch.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a dial: %v", err)
	}
	if b.fastFails != 1 {
		t.Fatalf("fastFails = %d, want 1", b.fastFails)
	}

	// Cooldown elapses: exactly one probe is admitted; a second concurrent
	// dial still fast-fails.
	time.Sleep(cooldown + 10*time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open refused the probe: %v", err)
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state after cooldown allow: %q, want half-open", b.state)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open admitted a second concurrent dial: %v", err)
	}
	// The probe fails: back to open for another cooldown.
	b.failure()
	if b.state != BreakerOpen || b.trips != 2 {
		t.Fatalf("after failed probe: state %q trips %d, want open/2", b.state, b.trips)
	}

	// Next probe succeeds: closed, counters reset.
	time.Sleep(cooldown + 10*time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.success()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("after probe success: state %q fails %d, want closed/0", b.state, b.fails)
	}
	if err := b.allow(); err != nil {
		t.Fatalf("recovered breaker refused a dial: %v", err)
	}
}

// TestBreakerProbeRelease: a probe slot claimed by a dial that ends with
// no verdict on the address (cancellation, a redirect) must be returned,
// or the breaker would deadlock half-open forever.
func TestBreakerProbeRelease(t *testing.T) {
	b := newBreaker(BreakerPolicy{Threshold: 1, Cooldown: 10 * time.Millisecond})
	b.failure() // trips at threshold 1
	time.Sleep(15 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.releaseProbe() // dial ended without an outcome
	if err := b.allow(); err != nil {
		t.Fatalf("released probe slot not reusable: %v", err)
	}
}

// TestRetryPolicySeededJitter is the determinism satellite: two policies
// sharing a seed produce the identical wait schedule, jitter included —
// so a chaos run's retry timing is replayable — while every jittered wait
// stays inside its ±Jitter envelope around the capped-exponential base.
func TestRetryPolicySeededJitter(t *testing.T) {
	waits := func(seed int64) []time.Duration {
		p := RetryPolicy{
			Base: 100 * time.Millisecond, Max: 800 * time.Millisecond,
			Jitter: 0.2, Rand: mrand.New(mrand.NewSource(seed)),
		}.withDefaults()
		out := make([]time.Duration, 8)
		for k := 1; k <= 8; k++ {
			out[k-1] = p.wait(k)
		}
		return out
	}

	a, b := waits(7), waits(7)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("wait %d: %v vs %v — same seed, different schedule", k+1, a[k], b[k])
		}
	}

	// The jitter envelope: wait k centers on min(Base·2^(k−1), Max).
	for k, w := range a {
		center := 100 * time.Millisecond << k
		if center > 800*time.Millisecond {
			center = 800 * time.Millisecond
		}
		lo := time.Duration(float64(center) * 0.8)
		hi := time.Duration(float64(center) * 1.2)
		if w < lo || w > hi {
			t.Fatalf("wait %d = %v outside [%v, %v]", k+1, w, lo, hi)
		}
	}

	// A different seed diverges somewhere in the schedule.
	c := waits(8)
	same := true
	for k := range a {
		same = same && a[k] == c[k]
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical jitter schedules")
	}
}

// TestRetryPolicyDo pins the one retry loop behind Dial, Stats and both
// bargaining regimes: the caller's attempt cap clamped to the policy's, a
// stop at the first error the predicate rejects, and a cancellation during
// a wait surfacing as the context's cause.
func TestRetryPolicyDo(t *testing.T) {
	p := RetryPolicy{Attempts: 5, Base: time.Millisecond, Jitter: -1}
	transient := errors.New("transient")
	always := func(error) bool { return true }
	count := func(attempts int, retryable func(error) bool) (int, error) {
		n := 0
		err := p.do(context.Background(), attempts, retryable, func() error { n++; return transient })
		return n, err
	}
	for _, c := range []struct{ attempts, want int }{{0, 5}, {3, 3}, {1, 1}, {9, 5}} {
		if n, err := count(c.attempts, always); n != c.want || !errors.Is(err, transient) {
			t.Fatalf("cap %d: %d attempts ending in %v, want %d ending in the op's error", c.attempts, n, err, c.want)
		}
	}
	if n, _ := count(0, func(error) bool { return false }); n != 1 {
		t.Fatalf("a final error was retried: %d attempts", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := time.AfterFunc(10*time.Millisecond, cancel)
	defer stop.Stop()
	err := RetryPolicy{Base: time.Hour}.do(ctx, 0, always, func() error { return transient })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: err = %v, want context.Canceled", err)
	}
}
