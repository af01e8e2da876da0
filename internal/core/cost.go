package core

import (
	"fmt"
	"math"
)

// CostKind selects the bargaining-cost shape studied in §4.3.
type CostKind int

// The cost shapes of Table 3.
const (
	NoCost     CostKind = iota
	LinearCost          // C(T) = a·T
	ExpCost             // C(T) = a^T
)

// String implements fmt.Stringer.
func (k CostKind) String() string {
	switch k {
	case NoCost:
		return "none"
	case LinearCost:
		return "linear"
	case ExpCost:
		return "exponential"
	default:
		return fmt.Sprintf("CostKind(%d)", int(k))
	}
}

// CostModel is one party's bargaining-cost function C(T) of the round number
// (§3.4.4): query fees at the third party plus the accumulated VFL
// communication and training cost.
type CostModel struct {
	Kind   CostKind
	Factor float64 // the a in a·T or a^T
	// Scale multiplies the cost; Table 3 uses 10·C_t(T) = 10·C_d(T) = C(T),
	// i.e. Scale = 0.1 on each party for the Credit/Adult settings.
	Scale float64
}

// At returns the party's cost at round T (1-based). Round 0 or negative
// costs nothing.
func (m CostModel) At(T int) float64 {
	if T <= 0 || m.Kind == NoCost {
		return 0
	}
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	switch m.Kind {
	case LinearCost:
		return scale * m.Factor * float64(T)
	case ExpCost:
		return scale * math.Pow(m.Factor, float64(T))
	default:
		return 0
	}
}

// dataAcceptsUnderCost implements Eq. 6: the data party accepts the current
// quote when its current-round net revenue meets a conservative estimate of
// next round's, under tolerance epsDC.
//
//	P0 + p·ΔGi − Cd(T) >= max{P0l, P0} + max{pl, p}·ΔGj − Cd(T+1) − εd,c
//
// where Fj is the bundle at the payment knee (gain ΔGj = (Ph−P0)/p) and
// (pl, P0l) its reserved price. When no bundle reaches the knee from above,
// there is nothing better to wait for and the data party accepts.
func dataAcceptsUnderCost(cat *Catalog, q QuotedPrice, offeredGain float64,
	cost CostModel, T int, epsDC float64) bool {
	if cost.Kind == NoCost {
		return false // the pure Case 2/3 logic applies instead
	}
	target := q.TargetGain()
	all := make([]int, cat.Len())
	for i := range all {
		all[i] = i
	}
	j, ok := cat.ClosestAbove(all, offeredGain)
	if !ok {
		return true // no better bundle exists to hold out for
	}
	gainJ := cat.Gain(j)
	if gainJ > target {
		gainJ = target // payment saturates at the knee
	}
	res := cat.Bundles[j].Reserved
	lhs := q.Base + q.Rate*offeredGain - cost.At(T)
	rhs := math.Max(res.Base, q.Base) + math.Max(res.Rate, q.Rate)*gainJ - cost.At(T+1) - epsDC
	return lhs >= rhs
}

// taskAcceptsUnderCost implements Eq. 7: the task party accepts when its
// current net profit meets the upper bound of what the next round could
// bring, under tolerance epsTC.
//
//	u·ΔG − (P0 + p·ΔG) − Ct(T) >= u·(Ph−P0)/p − Ph − Ct(T+1) − εt,c
func taskAcceptsUnderCost(u float64, q QuotedPrice, gain float64,
	cost CostModel, T int, epsTC float64) bool {
	if cost.Kind == NoCost {
		return false
	}
	lhs := u*gain - (q.Base + q.Rate*gain) - cost.At(T)
	rhs := u*q.TargetGain() - q.High - cost.At(T+1) - epsTC
	return lhs >= rhs
}
