package core

// Known-input tests of the two ε comparisons no sampled session lands on:
// each puts a realized gain or a prediction exactly on the boundary, where
// the comparison must accept, and one float below it, where it must not.

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"
)

// quoteSeller offers bundle 0 without committing, remembering the quote it
// answered and the decision each round settled with.
type quoteSeller struct {
	quote     QuotedPrice
	decisions []SettleDecision
}

func (s *quoteSeller) Offer(_ int, q QuotedPrice) (SellerOffer, error) {
	s.quote = q
	return SellerOffer{BundleID: 0, Features: []int{0}, TargetBundleID: -1}, nil
}

func (s *quoteSeller) Settle(_ int, _ RoundRecord, d SettleDecision) error {
	s.decisions = append(s.decisions, d)
	return nil
}

func (s *quoteSeller) Abandon(int) error { return nil }

// TestCaseFiveAcceptsAtEpsBoundary: a realized gain of exactly
// TargetGain()-εt meets the target (Case 5), and the next float below it,
// still far above break-even, does not.
func TestCaseFiveAcceptsAtEpsBoundary(t *testing.T) {
	cfg := SessionConfig{
		U: 1000, Budget: 8, TargetGain: 0.3, InitRate: 1, InitBase: 0.5,
		EpsTask: 1e-3, EpsData: 1e-3, MaxRounds: 1, Seed: 9,
	}
	for _, tc := range []struct {
		name  string
		below bool
		want  SettleDecision
	}{
		{"at the boundary", false, SettleAccept},
		{"one float below", true, SettleContinue},
	} {
		seller := &quoteSeller{}
		gains := GainFunc(func([]int) float64 {
			g := seller.quote.TargetGain() - cfg.EpsTask
			if tc.below {
				g = math.Nextafter(g, math.Inf(-1))
			}
			if g < BreakEvenGain(cfg.U, seller.quote) {
				t.Fatalf("%s: gain %v is below break-even", tc.name, g)
			}
			return g
		})
		if _, err := NewSession(nil, cfg).RunPerfectWith(context.Background(), seller, gains); err != nil {
			t.Fatal(err)
		}
		if len(seller.decisions) != 1 || seller.decisions[0] != tc.want {
			t.Fatalf("%s: round 1 settled %v, want %v", tc.name, seller.decisions, tc.want)
		}
	}
}

// TestCaseTwoOneAcceptsAtEpsBoundary: the data party commits to the bundle
// predicted closest below the knee (Case II(1)) when εd is exactly the
// knee minus its prediction, and not when εd is the next float below. A
// bundle predicted above the knee keeps Cases II(2) and II(3) out of play.
func TestCaseTwoOneAcceptsAtEpsBoundary(t *testing.T) {
	cat := testCatalog(t, 7, 29)
	cfg := sessionFor(cat, 29).withDefaults()
	s := trainedEstimatorSeller(cat, cfg, 150)
	preds := slices.Clone(s.g.PredictAll(s.featureSets))
	all := make([]int, cat.Len())
	for i := range all {
		all[i] = i
	}
	byPred := slices.Clone(all)
	slices.SortFunc(byPred, func(a, b int) int { return cmp.Compare(preds[a], preds[b]) })
	mid := len(byPred) / 2
	chosen, above := byPred[mid], byPred[mid+1]
	if !(preds[chosen] < preds[above]) {
		t.Fatalf("bundles %d and %d share the prediction %v", chosen, above, preds[chosen])
	}
	knee := (preds[chosen] + preds[above]) / 2
	q := QuotedPrice{Rate: 1, High: knee}
	eps := q.TargetGain() - preds[chosen]
	for _, tc := range []struct {
		name string
		eps  float64
		want bool
	}{
		{"at the boundary", eps, true},
		{"one float below", math.Nextafter(eps, math.Inf(-1)), false},
	} {
		s.cfg.EpsData = tc.eps
		id, accept := s.caseTwoChoice(q, all)
		if id != chosen || accept != tc.want {
			t.Fatalf("%s: offered bundle %d accept %v, want bundle %d accept %v", tc.name, id, accept, chosen, tc.want)
		}
	}
}
