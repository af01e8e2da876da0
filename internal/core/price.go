// Package core implements the paper's primary contribution: the
// bargaining-based feature-trading market for two-party VFL. It provides the
// pricing primitives (quoted prices, reserved prices and the performance-gain
// payment function of Eq. 2), feature bundles and catalogs, bargaining-cost
// models, the perfect-information bargaining engine of Algorithm 1 with
// termination Cases 1–6 and the cost-aware acceptance rules of Eqs. 6–7,
// the imperfect-information engine with estimation-based strategies and
// Cases I–VII, and the non-strategic baselines (Increase Price, Random
// Bundle) the paper compares against.
package core

import "fmt"

// QuotedPrice is the task party's offer p = (p, P0, Ph): payment rate, base
// payment, and highest payment (Definition 2.2).
type QuotedPrice struct {
	Rate float64 // p, the payment rate multiplying ΔG
	Base float64 // P0, the guaranteed minimum payment
	High float64 // Ph = P0 + C, the payment ceiling
}

// Validate reports structural problems: non-positive rate or base, or a
// ceiling below the base.
func (q QuotedPrice) Validate() error {
	if q.Rate <= 0 {
		return fmt.Errorf("core: quoted price rate %v must be positive", q.Rate)
	}
	if q.Base < 0 {
		return fmt.Errorf("core: quoted price base %v must be non-negative", q.Base)
	}
	if q.High < q.Base {
		return fmt.Errorf("core: quoted price ceiling %v below base %v", q.High, q.Base)
	}
	return nil
}

// TargetGain returns (Ph - P0)/p, the performance gain at which the payment
// function saturates — the equilibrium criterion of Eq. 5.
func (q QuotedPrice) TargetGain() float64 { return (q.High - q.Base) / q.Rate }

// Payment implements Eq. 2: min{max{P0, P0 + p·ΔG}, Ph}.
func (q QuotedPrice) Payment(gain float64) float64 {
	pay := q.Base + q.Rate*gain
	if pay < q.Base {
		pay = q.Base
	}
	if pay > q.High {
		pay = q.High
	}
	return pay
}

// EquilibriumPrice returns the quoted price with the given rate and base
// whose ceiling places the payment-function knee exactly at targetGain,
// i.e. (Ph - P0)/p = targetGain (Theorem 3.1).
func EquilibriumPrice(rate, base, targetGain float64) QuotedPrice {
	return QuotedPrice{Rate: rate, Base: base, High: base + rate*targetGain}
}

// BreakEvenGain returns P0/(u - p), the gain below which the task party's
// net profit is negative (the Case 4 failure threshold). It panics when
// u <= p, which individual rationality (u > p) rules out.
func BreakEvenGain(u float64, q QuotedPrice) float64 {
	if u <= q.Rate {
		panic("core: break-even gain requires u > p (individual rationality)")
	}
	return q.Base / (u - q.Rate)
}

// ReservedPrice is the data party's private per-bundle floor (p_l, P_l)
// (Definition 2.4): the minimum payment rate and minimum base payment it
// will sell the bundle at.
type ReservedPrice struct {
	Rate float64 // p_l
	Base float64 // P_l
}

// Admits reports whether the quoted price meets the reserved price:
// p_l <= p and P_l <= P0.
func (r ReservedPrice) Admits(q QuotedPrice) bool {
	return r.Rate <= q.Rate && r.Base <= q.Base
}
