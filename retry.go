package vflmarket

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"
)

// RetryPolicy is the client's shared schedule for retrying transient
// failures: how many attempts one operation makes and how the waits
// between them grow. One policy (WithRetryPolicy) drives the initial
// Dial, Stats reads, redirect/failover address rotation, and the
// imperfect-session resume loop. The schedule is capped exponential with
// jitter — wait k is Base·2^(k−1) clamped to Max, scaled by a uniform
// factor in [1−Jitter, 1+Jitter] so a fleet of clients severed together
// (a migration or shard failure cuts every session at once) does not
// redial in lockstep.
type RetryPolicy struct {
	// Attempts is the total number of attempts one call makes, the first
	// included. <= 0 keeps the default (12).
	Attempts int
	// Base is the wait before the first retry. <= 0 keeps the default
	// (150ms).
	Base time.Duration
	// Max caps a single wait once the doubling reaches it. <= 0 keeps the
	// default (2s).
	Max time.Duration
	// Jitter is the ± fraction randomizing each wait. 0 keeps the default
	// (0.2); negative disables jitter (deterministic schedule, for tests).
	Jitter float64
	// Rand, when set, is the jitter source — injecting a seeded
	// *rand.Rand makes the whole wait schedule deterministic and
	// replayable. nil draws from the shared global source. The policy
	// serializes access, so one Rand may back concurrent sessions.
	Rand *mrand.Rand
}

func (b RetryPolicy) withDefaults() RetryPolicy {
	if b.Attempts <= 0 {
		b.Attempts = 12
	}
	if b.Base <= 0 {
		b.Base = 150 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > 1 {
		b.Jitter = 1
	}
	return b
}

// jitterMu serializes draws from an injected Rand: policy values are
// copied freely across goroutines but share the caller's one source.
var jitterMu sync.Mutex

// wait returns the sleep before retry k (k >= 1) on a defaulted policy.
func (b RetryPolicy) wait(k int) time.Duration {
	d := b.Base
	for i := 1; i < k && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		var r float64
		if b.Rand != nil {
			jitterMu.Lock()
			r = b.Rand.Float64()
			jitterMu.Unlock()
		} else {
			r = mrand.Float64()
		}
		d = time.Duration(float64(d) * (1 + b.Jitter*(2*r-1)))
	}
	return d
}

// do runs op under the policy: at most attempts tries (<= 0, or more
// than the policy's Attempts, means the policy's Attempts), each retry
// after the policy's wait. It returns op's first success, or its error once
// retryable rejects it, ctx has ended, or the attempts are spent. A ctx
// that ends during a wait abandons the call with the context's cause.
func (b RetryPolicy) do(ctx context.Context, attempts int, retryable func(error) bool, op func() error) error {
	b = b.withDefaults()
	if attempts <= 0 || attempts > b.Attempts {
		attempts = b.Attempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(b.wait(attempt)):
			case <-ctx.Done():
				return fmt.Errorf("vflmarket: abandoned after %d attempts: %w", attempt, context.Cause(ctx))
			}
		}
		if err = op(); err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// ErrCircuitOpen reports a dial refused locally by the client's per-address
// circuit breaker: the address has failed enough consecutive dials that
// further attempts are suppressed until the cooldown admits a probe.
// Retryable — by then the breaker may have half-opened — and cheap: a
// fast-fail costs no syscall, which is the point.
var ErrCircuitOpen = errors.New("vflmarket: circuit open: address suppressed after consecutive dial failures")

// BreakerPolicy tunes the per-address circuit breakers in the client's
// connection pool.
type BreakerPolicy struct {
	// Threshold is the consecutive dial-failure count that trips the
	// breaker open. <= 0 keeps the default (5).
	Threshold int
	// Cooldown is how long a tripped breaker suppresses dials before
	// half-opening for a single probe. <= 0 keeps the default (1s).
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	return p
}

// Breaker states, as reported by PoolStats.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// breaker is one address's circuit-breaker state machine: closed (dials
// flow; consecutive failures count up) → open (dials fast-fail until the
// cooldown) → half-open (exactly one probe dial is admitted; success
// closes, failure re-opens). Dial outcomes — TCP connect plus the wire
// handshake — are the only inputs, so a server that accepts and
// handshakes cleanly always closes the breaker even while sessions on it
// are dying to mid-stream faults.
type breaker struct {
	mu     sync.Mutex
	policy BreakerPolicy

	state    string
	fails    int       // consecutive failures since the last success
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe dial is in flight

	trips     uint64
	fastFails uint64
	dials     uint64
	dialFails uint64
}

func newBreaker(p BreakerPolicy) *breaker {
	return &breaker{policy: p.withDefaults(), state: BreakerClosed}
}

// allow gates one dial attempt. A nil return admits the dial (and, in the
// half-open state, claims the single probe slot); ErrCircuitOpen means
// fast-fail without touching the network.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if time.Since(b.openedAt) < b.policy.Cooldown {
			b.fastFails++
			return ErrCircuitOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.fastFails++
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
	return nil
}

// success records a completed dial+handshake: the address is healthy.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dials++
	b.fails = 0
	b.probing = false
	b.state = BreakerClosed
}

// releaseProbe returns an unused half-open probe slot without recording
// an outcome — the dial ended for reasons unrelated to address health.
func (b *breaker) releaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// failure records a failed dial or handshake.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dials++
	b.dialFails++
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		// The probe itself failed: back to fully open for another cooldown.
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.trips++
	case BreakerClosed:
		if b.fails >= b.policy.Threshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.trips++
		}
	}
}

// AddrPoolStats is one address's slice of Client.PoolStats: pool
// occupancy plus the circuit breaker's state and counters, the client-side
// mirror of ServerMetrics.
type AddrPoolStats struct {
	Conns            int    // pooled connections (at most one)
	Active           int    // sessions currently open on it
	Breaker          string // BreakerClosed, BreakerOpen, or BreakerHalfOpen
	ConsecutiveFails int    // dial failures since the last success
	Trips            uint64 // times the breaker tripped open
	FastFails        uint64 // dials suppressed without touching the network
	Dials            uint64 // dial attempts that reached the network
	DialFailures     uint64 // of those, how many failed
}

// PoolStats maps server address → pool and breaker counters.
type PoolStats map[string]AddrPoolStats

// PoolStats snapshots the connection pool and per-address circuit
// breakers: one entry per address the client has dialed or been
// redirected to.
func (c *Client) PoolStats() PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(PoolStats, len(c.breakers))
	for addr, mc := range c.pool {
		out[addr] = AddrPoolStats{Conns: 1, Active: mc.Active()}
	}
	for addr, b := range c.breakers {
		st := out[addr]
		b.mu.Lock()
		st.Breaker = b.state
		st.ConsecutiveFails = b.fails
		st.Trips = b.trips
		st.FastFails = b.fastFails
		st.Dials = b.dials
		st.DialFailures = b.dialFails
		b.mu.Unlock()
		out[addr] = st
	}
	return out
}

// breakerFor returns addr's breaker, creating it closed on first use.
// Callers must not hold c.mu.
func (c *Client) breakerFor(addr string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[addr]
	if b == nil {
		b = newBreaker(c.cfg.breaker)
		c.breakers[addr] = b
	}
	return b
}
