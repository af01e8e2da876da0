package core

// Tests of the batched secure settlement path: RunPerfectSecure, alone or
// fanned out by Batch, must replay the exact game RunPerfect plays — same
// rounds, outcome, and bundle — with settled payments carrying only the
// cipher's fixed-point quantization.

import (
	"context"
	"crypto/rand"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/secure"
)

// paillierCipher is the real §3.6 cipher over a shared demo key — what
// vflmarket.Settlement wires up, minus the public packaging.
type paillierCipher struct {
	recv  *secure.DataReceiver
	noise *secure.NoiseSource
}

var (
	cipherOnce sync.Once
	cipher     *paillierCipher
)

func testCipher(t testing.TB) *paillierCipher {
	t.Helper()
	cipherOnce.Do(func() {
		sk, err := secure.GenerateKey(rand.Reader, 128)
		if err != nil {
			t.Fatal(err)
		}
		recv := secure.NewDataReceiver(sk)
		cipher = &paillierCipher{
			recv:  recv,
			noise: secure.NewNoiseSource(recv.PublicKey(), 32, 1, rand.Reader),
		}
	})
	return cipher
}

func (c *paillierCipher) Seal(payment float64) ([]byte, error) {
	return secure.Seal(c.recv.PublicKey(), c.noise, payment)
}

func (c *paillierCipher) Open(ciphertext []byte) (float64, error) {
	return c.recv.Open(ciphertext)
}

// secureBatchMarket mirrors the synthetic market the wire tests bargain
// over.
func secureBatchMarket(seed uint64) (*Catalog, SessionConfig) {
	gains := NewSyntheticGains(6, 0.2, 0, rng.New(seed))
	cat := NewCatalog(6, CatalogConfig{Size: 20}, rng.New(seed), gains)
	target, _ := cat.MaxGain()
	rate, base := cat.SuggestInitialPrice()
	cfg := SessionConfig{
		U: 1000, Budget: 8, TargetGain: target,
		InitRate: rate, InitBase: base,
		EpsTask: 1e-3, EpsData: 1e-3,
		MaxRounds: 400, Seed: seed,
	}
	return cat, cfg
}

// secureBatch plays one session per config through Batch, settling each
// through the cipher when it is non-nil and in the clear otherwise.
func secureBatch(ctx context.Context, cat *Catalog, cfgs []SessionConfig, workers int, cipher SettlementCipher) ([]*Result, error) {
	return Batch(ctx, len(cfgs), workers, func(ctx context.Context, i int) (*Result, error) {
		if cipher == nil {
			return NewSession(cat, cfgs[i]).RunPerfect(ctx)
		}
		return NewSession(cat, cfgs[i]).RunPerfectSecure(ctx, cipher)
	})
}

func TestBatchSecureMatchesClearBatch(t *testing.T) {
	cat, cfg := secureBatchMarket(41)
	cfgs := make([]SessionConfig, 12)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = uint64(100 + i)
	}
	clear, err := secureBatch(context.Background(), cat, cfgs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := secureBatch(context.Background(), cat, cfgs, 4, testCipher(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		want, got := clear[i], sec[i]
		if got.Outcome != want.Outcome || got.Final.BundleID != want.Final.BundleID ||
			len(got.Rounds) != len(want.Rounds) || got.TargetBundleID != want.TargetBundleID {
			t.Fatalf("job %d diverged: clear %v/%d/%d vs secure %v/%d/%d",
				i, want.Outcome, want.Final.BundleID, len(want.Rounds),
				got.Outcome, got.Final.BundleID, len(got.Rounds))
		}
		for r := range want.Rounds {
			w, g := want.Rounds[r], got.Rounds[r]
			if g.Gain != w.Gain || g.Price != w.Price || g.BundleID != w.BundleID {
				t.Fatalf("job %d round %d trace diverged", i, r)
			}
			// The secure payment is the clear one quantized to 1/GainScale —
			// exactly, not approximately: Open(Seal(p)) is round(p·scale)/scale.
			wantPay := math.Round(w.Payment*secure.GainScale) / secure.GainScale
			if g.Payment != wantPay {
				t.Fatalf("job %d round %d payment %v, want quantized %v (clear %v)",
					i, r, g.Payment, wantPay, w.Payment)
			}
			if wantNet := cfg.U*g.Gain - g.Payment; g.NetProfit != wantNet {
				t.Fatalf("job %d round %d net profit %v, want %v", i, r, g.NetProfit, wantNet)
			}
		}
	}
}

func TestRunPerfectSecureRejectsNilCipher(t *testing.T) {
	cat, cfg := secureBatchMarket(43)
	if _, err := NewSession(cat, cfg).RunPerfectSecure(context.Background(), nil); err == nil {
		t.Fatal("nil cipher accepted")
	}
}

func TestBatchSecureCancellation(t *testing.T) {
	cat, cfg := secureBatchMarket(47)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cipher := testCipher(t)
	if _, err := NewSession(cat, cfg).RunPerfectSecure(ctx, cipher); err == nil {
		t.Fatal("cancelled secure session reported success")
	}
	if _, err := secureBatch(ctx, cat, []SessionConfig{cfg, cfg}, 2, cipher); err == nil {
		t.Fatal("cancelled batch reported success")
	}
}
