package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPaymentClampsAtBaseAndCeiling(t *testing.T) {
	q := QuotedPrice{Rate: 10, Base: 1, High: 3}
	if got := q.Payment(-0.5); got != 1 {
		t.Fatalf("negative gain payment = %v, want base 1", got)
	}
	if got := q.Payment(0.1); got != 2 {
		t.Fatalf("interior payment = %v, want 2", got)
	}
	if got := q.Payment(10); got != 3 {
		t.Fatalf("huge gain payment = %v, want ceiling 3", got)
	}
}

func TestPaymentKneeAtTargetGain(t *testing.T) {
	q := QuotedPrice{Rate: 8, Base: 1.2, High: 2.8}
	knee := q.TargetGain()
	if math.Abs(q.Payment(knee)-q.High) > 1e-12 {
		t.Fatalf("payment at knee = %v, want %v", q.Payment(knee), q.High)
	}
	if q.Payment(knee-1e-6) >= q.High {
		t.Fatal("payment below knee should be below ceiling")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		q  QuotedPrice
		ok bool
	}{
		{QuotedPrice{Rate: 1, Base: 0, High: 1}, true},
		{QuotedPrice{Rate: 0, Base: 0, High: 1}, false},
		{QuotedPrice{Rate: 1, Base: -1, High: 1}, false},
		{QuotedPrice{Rate: 1, Base: 2, High: 1}, false},
	}
	for i, c := range cases {
		if err := c.q.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v", i, err)
		}
	}
}

func TestEquilibriumPriceSatisfiesEq5(t *testing.T) {
	q := EquilibriumPrice(9, 1.3, 0.17)
	if math.Abs(q.TargetGain()-0.17) > 1e-12 {
		t.Fatalf("TargetGain = %v", q.TargetGain())
	}
	if q.High != 1.3+9*0.17 {
		t.Fatalf("High = %v", q.High)
	}
}

func TestTaskNetProfitAndBreakEven(t *testing.T) {
	q := QuotedPrice{Rate: 10, Base: 1, High: 3}
	u := 100.0
	be := BreakEvenGain(u, q)
	if math.Abs(be-1.0/90) > 1e-12 {
		t.Fatalf("break-even = %v", be)
	}
	// Exactly at break-even, net profit is zero (payment = base + rate·g).
	if got := TaskNetProfit(u, be, q); math.Abs(got) > 1e-12 {
		t.Fatalf("profit at break-even = %v", got)
	}
	if TaskNetProfit(u, be/2, q) >= 0 {
		t.Fatal("profit below break-even should be negative")
	}
	if TaskNetProfit(u, be*2, q) <= 0 {
		t.Fatal("profit above break-even should be positive")
	}
}

func TestBreakEvenPanicsWithoutRationality(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when u <= p")
		}
	}()
	BreakEvenGain(5, QuotedPrice{Rate: 10, Base: 1, High: 2})
}

func TestDataRegretZeroAtKnee(t *testing.T) {
	q := QuotedPrice{Rate: 10, Base: 1, High: 3}
	if got := DataRegret(q.TargetGain(), q); math.Abs(got) > 1e-12 {
		t.Fatalf("regret at knee = %v", got)
	}
	if DataRegret(0.05, q) <= 0 {
		t.Fatal("regret below knee should be positive")
	}
}

func TestReservedAdmits(t *testing.T) {
	r := ReservedPrice{Rate: 8, Base: 1}
	if !r.Admits(QuotedPrice{Rate: 9, Base: 1.2, High: 3}) {
		t.Fatal("should admit")
	}
	if r.Admits(QuotedPrice{Rate: 7, Base: 1.2, High: 3}) {
		t.Fatal("rate below reserved should not admit")
	}
	if r.Admits(QuotedPrice{Rate: 9, Base: 0.5, High: 3}) {
		t.Fatal("base below reserved should not admit")
	}
}

// Property (Figure 1a): payment is monotone non-decreasing in ΔG and always
// within [P0, Ph].
func TestPaymentMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		q := QuotedPrice{
			Rate: src.Uniform(0.1, 20),
			Base: src.Uniform(0, 5),
		}
		q.High = q.Base + src.Uniform(0, 10)
		prev := math.Inf(-1)
		for g := -1.0; g <= 2.0; g += 0.01 {
			p := q.Payment(g)
			if p < q.Base-1e-12 || p > q.High+1e-12 || p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 3.1): replacing a quote (p, P0, Ph) whose knee exceeds
// the realized gain ΔG with the equilibrium quote (p, P0, P0 + p·ΔG) leaves
// both parties' revenues unchanged.
func TestTheorem31Property(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		u := src.Uniform(50, 2000)
		rate := src.Uniform(0.5, u/3)
		base := src.Uniform(0.1, 3)
		gain := src.Uniform(0.001, 0.5)
		// Original quote with knee at or above the realized gain.
		q := QuotedPrice{Rate: rate, Base: base, High: base + rate*(gain+src.Uniform(0, 0.5))}
		qStar := EquilibriumPrice(rate, base, gain)
		if qStar.High > q.High+1e-12 {
			return false // construction guarantees Ph* <= Ph
		}
		samePay := math.Abs(q.Payment(gain)-qStar.Payment(gain)) < 1e-9
		sameProfit := math.Abs(TaskNetProfit(u, gain, q)-TaskNetProfit(u, gain, qStar)) < 1e-9
		kneeExact := math.Abs(qStar.TargetGain()-gain) < 1e-9
		return samePay && sameProfit && kneeExact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 3.1): among quotes with the same rate and base that all
// elicit gain ΔG, the equilibrium quote weakly dominates — no quote with a
// higher ceiling yields more net profit.
func TestLemma31WeakDominanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		u := src.Uniform(50, 2000)
		rate := src.Uniform(0.5, u/3)
		base := src.Uniform(0.1, 3)
		gain := src.Uniform(0.001, 0.5)
		qStar := EquilibriumPrice(rate, base, gain)
		star := TaskNetProfit(u, gain, qStar)
		for i := 0; i < 10; i++ {
			alt := QuotedPrice{Rate: rate, Base: base, High: qStar.High + src.Uniform(0, 5)}
			if TaskNetProfit(u, gain, alt) > star+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The realized Eq. 3 and Eq. 4 objectives no served path computes, kept for
// the property tests above.

// TaskNetProfit implements the realized form of Eq. 3: u·ΔG minus the
// payment, before bargaining costs.
func TaskNetProfit(u, gain float64, q QuotedPrice) float64 {
	return u*gain - q.Payment(gain)
}

// DataRegret implements the data party's objective of Eq. 4 for a realized
// gain: |Ph - max{P0, P0 + p·ΔG}| — the shortfall from the ceiling the data
// party tries to minimize by bundle choice.
func DataRegret(gain float64, q QuotedPrice) float64 {
	floor := q.Base + q.Rate*gain
	if floor < q.Base {
		floor = q.Base
	}
	return math.Abs(q.High - floor)
}
