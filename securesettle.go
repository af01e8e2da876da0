package vflmarket

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/secure"
)

// Settlement is the in-process §3.6 secure settlement authority: a
// Paillier key pair plus a concurrently refilled pool of precomputed
// encryption randomizers. It implements the settlement boundary that
// Engine.BargainBatchSecure routes every realized round through — the task
// side seals payments (one modular multiplication each in steady state,
// drawn from the pool, as a secure wire client does), the data side opens
// them with a CRT decryption blinded by powers of the key's own primes, as
// a secure wire server does.
//
// A Settlement is safe for concurrent use. Close releases the pool's
// background workers; sealing keeps working inline afterwards.
type Settlement struct {
	recv  *secure.DataReceiver
	noise *secure.NoiseSource
}

// NewSettlement generates a key pair with primes of keyBits (256 is fine
// for demos; production wants 1536+) and starts a randomizer pool of the
// given size (0 means the default, secure.DefaultNoisePool). Generation is
// eager — the Settlement is ready when the call returns; prime the pool
// with Prime to start batches against a full pool.
func NewSettlement(keyBits, poolSize int) (*Settlement, error) {
	sk, err := secure.GenerateKey(rand.Reader, keyBits)
	if err != nil {
		return nil, err
	}
	recv := secure.NewDataReceiver(sk)
	return &Settlement{
		recv:  recv,
		noise: secure.NewNoiseSource(recv.PublicKey(), poolSize, 0, rand.Reader),
	}, nil
}

// Prime fills the randomizer pool to capacity before returning, so the
// first settlements of a batch draw precomputed factors instead of racing
// the background workers.
func (s *Settlement) Prime(ctx context.Context) error { return s.noise.Prime(ctx) }

// Close releases the pool's background workers. Sealing still works after
// Close — draws fall back to inline computation.
func (s *Settlement) Close() { s.noise.Close() }

// NoiseStats snapshots the randomizer pool's counters: pooled vs inline
// draws and the factors produced so far.
func (s *Settlement) NoiseStats() secure.NoiseStats { return s.noise.Stats() }

// Seal implements core.SettlementCipher: the payment is fixed-point
// encoded and encrypted under the settlement key, drawing the randomizer
// from the pool.
func (s *Settlement) Seal(payment float64) ([]byte, error) {
	m, err := secure.EncodeFixed(s.recv.PublicKey(), payment)
	if err != nil {
		return nil, err
	}
	ct, err := s.noise.Encrypt(m)
	if err != nil {
		return nil, err
	}
	return ct.C.Bytes(), nil
}

// Open implements core.SettlementCipher: the ciphertext is blinded
// (plaintext unchanged) and CRT-decrypted. The returned payment is the
// sealed value quantized to 1/GainScale.
func (s *Settlement) Open(ciphertext []byte) (float64, error) {
	if len(ciphertext) == 0 {
		return 0, fmt.Errorf("vflmarket: empty settlement ciphertext")
	}
	ct := &secure.Ciphertext{C: new(big.Int).SetBytes(ciphertext)}
	return s.recv.OpenPayment(&secure.GainReport{EncPayment: ct})
}

// BargainBatchSecure is BargainBatch with every session settling through
// the shared Settlement: each realized round's payment is sealed by the
// task side, opened by the data side, and the opened value — what the data
// party is actually paid, quantized to the fixed-point resolution —
// replaces the clear payment in the Results. Round traces, outcomes, and
// bundles are identical to BargainBatch for the same specs and seed; the
// concurrency contract (bounded workers, deterministic in the specs and
// batch seed alone, first error abandons the batch) carries over
// unchanged. Sessions draw concurrently on the Settlement's randomizer
// pool, which refills in the background while they bargain.
func (e *Engine) BargainBatchSecure(ctx context.Context, specs []BatchSpec, opts BatchOptions, st *Settlement) ([]*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("vflmarket: BargainBatchSecure needs a Settlement (NewSettlement)")
	}
	return core.Batch(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) (*Result, error) {
		cfg := resolveBatchConfig(e.env.Session, specs[i], opts, i)
		return core.NewSession(e.env.Catalog, cfg).Observe(specs[i].Observer).RunPerfectSecure(ctx, st)
	})
}
