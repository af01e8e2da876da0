package secure

import (
	"bytes"
	"context"
	"io"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// NoiseSource is a bounded concurrent pool of precomputed encryption
// randomizers r^n mod n² — the message-independent modexp that dominates
// Paillier encryption under a bare public key. Background workers keep the
// pool topped up, so steady-state settlement encryption costs one modular
// multiplication per draw; when the pool is drained faster than it
// refills, draws fall back to computing the factor inline, so a
// NoiseSource never blocks and never fails where plain encryption would
// succeed. (The key holder needs no pool: a DataReceiver blinds its
// decryptions with powers of its own primes.)
//
// Every source in the process shares one budget of max(1, GOMAXPROCS−1)
// concurrent refill modexps (workers and Prime take a slot per factor), so
// refill never holds every core while a session waits for one. Inline
// fallback draws are the session's own work and never wait for it.
//
// Every pooled factor is consumed by exactly one draw (the pool is a
// channel, so a randomizer can never be double-spent), and Close stops the
// workers without stranding callers: encryption keeps working inline on a
// closed source. A NoiseSource is safe for concurrent use.
type NoiseSource struct {
	pk     *PublicKey
	n      []byte // pk.N, big-endian, for KeyFor
	random io.Reader

	pool chan *big.Int
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	pooled   atomic.Uint64 // draws served from the pool
	inline   atomic.Uint64 // draws computed inline (pool drained or closed)
	produced atomic.Uint64 // factors produced by the background workers
}

// NoiseStats is a point-in-time snapshot of a NoiseSource's counters.
type NoiseStats struct {
	// Pooled counts draws served by a precomputed factor (one mulmod
	// each); Inline counts draws the pool could not serve, each a fallback
	// modexp.
	Pooled, Inline uint64
	// Produced counts factors the background workers computed.
	Produced uint64
	// Buffered is the number of factors ready right now.
	Buffered int
}

// DefaultNoisePool is the pool size used when a caller passes size <= 0.
const DefaultNoisePool = 64

// refillSlots is the process-wide refill budget: one slot per refill
// modexp that may run at once across every NoiseSource, leaving one core
// to the sessions the pools serve.
var refillSlots = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1))

// NewNoiseSource builds a pool of up to size precomputed randomizers for
// the key, filled by the given number of background workers (workers = 0
// means min(2, GOMAXPROCS); workers < 0 runs no background workers at all
// — a prime-only pool, for callers that want precomputation strictly at
// moments they choose via Prime; size <= 0 means DefaultNoisePool). The
// workers are this source's goroutines; how many factors compute at once
// is bounded by the refill budget every source shares. random is the
// entropy source for both pooled and fallback factors; it must be safe
// for concurrent use (crypto/rand.Reader is), and a refill reads it while
// holding a budget slot. Callers own the source's lifecycle: Close it when
// done to release the workers.
func NewNoiseSource(pk *PublicKey, size, workers int, random io.Reader) *NoiseSource {
	if size <= 0 {
		size = DefaultNoisePool
	}
	switch {
	case workers < 0:
		workers = 0
	case workers == 0:
		workers = min(2, runtime.GOMAXPROCS(0))
	}
	s := &NoiseSource{
		pk:     pk,
		n:      pk.N.Bytes(),
		random: random,
		pool:   make(chan *big.Int, size),
		done:   make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.fill()
	}
	return s
}

// fill is one background producer: compute a factor, park it in the pool,
// repeat until closed. The send blocks while the pool is full — that is
// the bound on precomputed state — and aborts on Close so a full pool
// never deadlocks shutdown.
func (s *NoiseSource) fill() {
	defer s.wg.Done()
	for {
		rn, _ := s.refill(context.Background())
		if rn == nil {
			// Closed, or an entropy failure: stop producing; draws fall
			// back inline and surface the error to the caller that can
			// handle it.
			return
		}
		select {
		case s.pool <- rn:
			s.produced.Add(1)
		case <-s.done:
			return
		}
	}
}

// refill computes one factor for the pool while holding a slot of the
// process-wide refill budget, releasing it before the caller blocks on the
// pool. A closed source computes nothing and returns (nil, nil); waiting
// for a slot gives way to Close and to ctx, so neither ever waits behind
// another source's modexp.
func (s *NoiseSource) refill(ctx context.Context) (*big.Int, error) {
	select {
	case <-s.done:
		return nil, nil
	default:
	}
	select {
	case refillSlots <- struct{}{}:
	case <-s.done:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-refillSlots }()
	return s.pk.NoiseFactor(s.random)
}

// Prime fills the pool to capacity from the calling goroutine, returning
// once it is full (or ctx ends). Servers call it at market registration so
// the first settlements hit a warm pool instead of racing the background
// workers. Each factor it computes takes a slot of the refill budget.
func (s *NoiseSource) Prime(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Checking fullness before computing keeps a re-prime of a warm
		// pool free: a noise factor costs a full-width modexp, too much to
		// compute speculatively and discard. The len read races refills
		// benignly — at worst one extra factor is computed and dropped.
		if len(s.pool) == cap(s.pool) {
			return nil
		}
		rn, err := s.refill(ctx)
		if rn == nil {
			return err // closed (nil), cancelled, or out of entropy
		}
		select {
		case s.pool <- rn:
		default:
			return nil // filled concurrently; drop the extra factor
		}
	}
}

// draw returns a pooled factor, or nil when the pool is momentarily empty.
func (s *NoiseSource) draw() *big.Int {
	select {
	case rn := <-s.pool:
		s.pooled.Add(1)
		return rn
	default:
		s.inline.Add(1)
		return nil
	}
}

// factor returns a randomizer from the pool, computing it inline when
// drained.
func (s *NoiseSource) factor() (*big.Int, error) {
	if rn := s.draw(); rn != nil {
		return rn, nil
	}
	return s.pk.NoiseFactor(s.random)
}

// Key returns the public key the source precomputes randomizers for.
func (s *NoiseSource) Key() *PublicKey { return s.pk }

// KeyFor returns the public key whose big-endian modulus is pubN: the
// source's own when the moduli match, so a seal under it draws from the
// pool, and a new key otherwise (a nil source has none).
func (s *NoiseSource) KeyFor(pubN []byte) *PublicKey {
	if s != nil && bytes.Equal(s.n, pubN) {
		return s.pk
	}
	return NewPublicKey(new(big.Int).SetBytes(pubN))
}

// Encrypt encrypts m ∈ [0, n) under the source's key, drawing the
// randomizer from the pool (one mulmod) and falling back to inline
// computation when drained.
func (s *NoiseSource) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := s.factor()
	if err != nil {
		return nil, err
	}
	return s.pk.encryptWithFactor(m, rn)
}

// Close stops the background workers. Pending pooled factors remain
// drawable; once drained, every draw computes inline. Close is idempotent
// and safe to call concurrently with draws.
func (s *NoiseSource) Close() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Stats snapshots the source's counters.
func (s *NoiseSource) Stats() NoiseStats {
	return NoiseStats{
		Pooled:   s.pooled.Load(),
		Inline:   s.inline.Load(),
		Produced: s.produced.Load(),
		Buffered: len(s.pool),
	}
}
