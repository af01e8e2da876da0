package core

import (
	"context"
	"fmt"
)

// SettlementCipher is the §3.6 secure settlement boundary as the game loop
// sees it: the task party seals each realized round's Eq. 2 payment into a
// ciphertext, the data party opens it. The core package never touches key
// material — internal/secure provides the Paillier implementation and the
// public vflmarket.Settlement wires it up with a pooled randomizer source,
// so steady-state sealing costs one modular multiplication per round.
//
// A cipher is shared by every session of a secure batch and must be safe
// for concurrent use.
type SettlementCipher interface {
	// Seal encrypts a payment under the data party's key.
	Seal(payment float64) ([]byte, error)
	// Open decrypts a sealed payment. For any payment p within the cipher's
	// fixed-point range, Open(Seal(p)) returns p quantized to the cipher's
	// resolution — the value the data party actually receives.
	Open(ciphertext []byte) (float64, error)
}

// secureSeller decorates a Seller with the secure settlement exchange:
// every realized round's payment crosses the boundary as ciphertext, the
// opened (decrypted, fixed-point-quantized) payment replaces the clear one
// in the record the seller absorbs, and the raw gain is withheld — exactly
// the view a Paillier-settling wire server gets.
type secureSeller struct {
	inner  Seller
	cipher SettlementCipher
	// opened collects the decrypted payment of each realized round, in
	// round order — the settled truth the runner folds back into the
	// Result.
	opened []float64
}

func (s *secureSeller) Offer(round int, q QuotedPrice) (SellerOffer, error) {
	return s.inner.Offer(round, q)
}

func (s *secureSeller) Settle(round int, rec RoundRecord, d SettleDecision) error {
	ct, err := s.cipher.Seal(rec.Payment)
	if err != nil {
		return fmt.Errorf("core: sealing round %d payment: %w", round, err)
	}
	pay, err := s.cipher.Open(ct)
	if err != nil {
		return fmt.Errorf("core: opening round %d payment: %w", round, err)
	}
	s.opened = append(s.opened, pay)
	// The data party sees the decrypted payment and never the gain (the
	// whole point of §3.6); zero it as the wire server's records do — and
	// the task party's net profit with it, which would otherwise hand the
	// gain back as (NetProfit + Payment)/U.
	rec.Gain = 0
	rec.NetProfit = 0
	rec.Payment = pay
	return s.inner.Settle(round, rec, d)
}

func (s *secureSeller) Abandon(round int) error { return s.inner.Abandon(round) }

// RunPerfectSecure plays RunPerfect with settlements routed through the
// cipher: each realized round's payment is sealed, opened, and the opened
// value — the payment the data party actually receives, quantized to the
// cipher's fixed-point resolution — replaces the clear payment in the
// Result (NetProfit is recomputed against it). Bargaining decisions are
// the task party's and are taken on its own clear values, so the round
// trace, outcome, and bundle are identical to RunPerfect for the same
// seed; only the settled payments carry the quantization.
func (s *Session) RunPerfectSecure(ctx context.Context, cipher SettlementCipher) (*Result, error) {
	if cipher == nil {
		return nil, fmt.Errorf("core: RunPerfectSecure needs a settlement cipher")
	}
	cat := s.cat
	if cat.Len() == 0 {
		return nil, fmt.Errorf("core: empty catalog")
	}
	pol, err := s.preparePerfect()
	if err != nil {
		return nil, err
	}
	sec := &secureSeller{
		inner:  &catalogSeller{cat: cat, cfg: pol.cfg, src: pol.src},
		cipher: cipher,
	}
	realize := func(o SellerOffer) float64 { return cat.Gain(o.BundleID) }
	res := &Result{TargetBundleID: cat.TargetBundle(pol.cfg.TargetGain)}
	if err := s.play(ctx, pol.cfg, pol, sec, realize, res); err != nil {
		return nil, err
	}
	// Fold the decrypted payments back into the trace: the settled record
	// is what the data party was actually paid. Every realized round was
	// settled, so the two series align by construction.
	for i := range res.Rounds {
		rec := &res.Rounds[i]
		rec.Payment = sec.opened[i]
		rec.NetProfit = float64(pol.cfg.U*rec.Gain) - rec.Payment
	}
	if n := len(res.Rounds); n > 0 {
		res.Final = res.Rounds[n-1]
	}
	return res, nil
}
