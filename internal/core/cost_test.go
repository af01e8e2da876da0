package core

import (
	"math"
	"testing"
)

func TestCostModelAt(t *testing.T) {
	lin := CostModel{Kind: LinearCost, Factor: 0.5}
	if lin.At(4) != 2 {
		t.Fatalf("linear C(4) = %v", lin.At(4))
	}
	exp := CostModel{Kind: ExpCost, Factor: 1.1}
	if math.Abs(exp.At(2)-1.21) > 1e-12 {
		t.Fatalf("exp C(2) = %v", exp.At(2))
	}
	if NoCostModel.At(100) != 0 {
		t.Fatal("NoCost should cost nothing")
	}
	if lin.At(0) != 0 || lin.At(-3) != 0 {
		t.Fatal("round <= 0 should cost nothing")
	}
}

func TestCostModelScale(t *testing.T) {
	// Table 3 uses 10·C_t(T) = C(T), i.e. Scale = 0.1 per party.
	m := CostModel{Kind: LinearCost, Factor: 1, Scale: 0.1}
	if m.At(10) != 1 {
		t.Fatalf("scaled C(10) = %v", m.At(10))
	}
}

func TestCostModelMonotone(t *testing.T) {
	if !NoCostModel.Monotone() {
		t.Fatal("NoCost should be monotone")
	}
	if !(CostModel{Kind: LinearCost, Factor: 1}).Monotone() {
		t.Fatal("linear with a>0 should be monotone")
	}
	if (CostModel{Kind: ExpCost, Factor: 0.9}).Monotone() {
		t.Fatal("exp with a<1 is decreasing, not monotone bargaining cost")
	}
	if (CostModel{Kind: CostKind(9)}).Monotone() {
		t.Fatal("unknown kind should not claim monotonicity")
	}
}

func TestCostModelGrowth(t *testing.T) {
	lin := CostModel{Kind: LinearCost, Factor: 1}
	exp := CostModel{Kind: ExpCost, Factor: 1.1}
	for T := 1; T < 50; T++ {
		if lin.At(T+1) <= lin.At(T) || exp.At(T+1) <= exp.At(T) {
			t.Fatalf("cost not strictly increasing at T=%d", T)
		}
	}
	// Exponential eventually overtakes linear.
	if exp.At(100) <= lin.At(100) {
		t.Fatalf("a^T should dominate a·T at T=100: %v vs %v", exp.At(100), lin.At(100))
	}
}

func TestTaskAcceptsUnderCostBasics(t *testing.T) {
	q := QuotedPrice{Rate: 10, Base: 1, High: 3}
	u := 100.0
	// Without cost the rule never fires (Case 5/2 logic governs instead).
	if taskAcceptsUnderCost(u, q, 0.15, NoCostModel, 3, 0) {
		t.Fatal("no-cost should never accept via Eq. 7")
	}
	// With a steep enough cost and a near-knee gain, accepting must win:
	// the marginal gain of one more round cannot cover its cost.
	steep := CostModel{Kind: LinearCost, Factor: 10}
	if !taskAcceptsUnderCost(u, q, q.TargetGain()*0.99, steep, 3, 0) {
		t.Fatal("steep cost near the knee should trigger acceptance")
	}
	// Far below the knee with negligible cost, holding out is better.
	tiny := CostModel{Kind: LinearCost, Factor: 1e-9}
	if taskAcceptsUnderCost(u, q, 0.01, tiny, 3, 0) {
		t.Fatal("negligible cost far from knee should not accept")
	}
}

func TestDataAcceptsUnderCostBasics(t *testing.T) {
	cat := testCatalog(t, 6, 51)
	q := QuotedPrice{Rate: 10, Base: 1.3, High: 1.3 + 10*0.3}
	if dataAcceptsUnderCost(cat, q, 0.1, NoCostModel, 3, 0) {
		t.Fatal("no-cost should never accept via Eq. 6")
	}
	steep := CostModel{Kind: LinearCost, Factor: 100}
	if !dataAcceptsUnderCost(cat, q, 0.1, steep, 3, 0) {
		t.Fatal("overwhelming cost should trigger acceptance")
	}
	// Offering the max-gain bundle: nothing better to wait for → accept.
	maxGain, _ := cat.MaxGain()
	some := CostModel{Kind: LinearCost, Factor: 0.01}
	if !dataAcceptsUnderCost(cat, q, maxGain, some, 3, 0) {
		t.Fatal("no better bundle above → should accept")
	}
}

// Proposition 3.1/3.2: with constant (here: negligible) cost the cost-aware
// rules reduce to the ε-threshold conditions, so sessions with vanishing
// cost must reproduce the no-cost equilibrium.
func TestVanishingCostMatchesNoCost(t *testing.T) {
	cat := testCatalog(t, 6, 55)
	base := sessionFor(cat, 55)
	noCost, err := RunPerfect(cat, base)
	if err != nil {
		t.Fatal(err)
	}
	withCost := base
	withCost.TaskCost = CostModel{Kind: LinearCost, Factor: 1e-12}
	withCost.DataCost = CostModel{Kind: LinearCost, Factor: 1e-12}
	got, err := RunPerfect(cat, withCost)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != noCost.Outcome || got.Final.BundleID != noCost.Final.BundleID {
		t.Fatalf("vanishing cost changed the equilibrium: %v/%d vs %v/%d",
			got.Outcome, got.Final.BundleID, noCost.Outcome, noCost.Final.BundleID)
	}
}

// §4.3's headline: bargaining cost pushes the parties to a less optimal but
// earlier agreement; faster-growing cost hurts more.
func TestCostShortensBargaining(t *testing.T) {
	cat := testCatalog(t, 8, 57)
	base := sessionFor(cat, 57)
	noCost, err := RunPerfect(cat, base)
	if err != nil {
		t.Fatal(err)
	}
	costly := base
	costly.TaskCost = CostModel{Kind: LinearCost, Factor: 1}
	costly.DataCost = CostModel{Kind: LinearCost, Factor: 1}
	withCost, err := RunPerfect(cat, costly)
	if err != nil {
		t.Fatal(err)
	}
	if withCost.Outcome != Success {
		t.Fatalf("costly session outcome = %v", withCost.Outcome)
	}
	if len(withCost.Rounds) > len(noCost.Rounds) {
		t.Fatalf("cost lengthened bargaining: %d vs %d rounds",
			len(withCost.Rounds), len(noCost.Rounds))
	}
}

func TestCostReducesFinalRevenues(t *testing.T) {
	cat := testCatalog(t, 8, 59)
	const runs = 20
	meanNet := func(cost CostModel) float64 {
		sum := 0.0
		for s := uint64(0); s < runs; s++ {
			cfg := sessionFor(cat, s)
			cfg.TaskCost = cost
			cfg.DataCost = cost
			res, err := RunPerfect(cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == Success {
				task, _ := res.FinalNetRevenue()
				sum += task
			}
		}
		return sum / runs
	}
	free := meanNet(NoCostModel)
	costly := meanNet(CostModel{Kind: LinearCost, Factor: 0.5})
	if costly >= free {
		t.Fatalf("cost did not reduce net revenue: %v vs %v", costly, free)
	}
}

// Cost-model names no served path uses, kept for the tests above.

// NoCostModel is the zero-cost model of the base experiments.
var NoCostModel = CostModel{Kind: NoCost}

// Monotone reports whether the model is non-decreasing in T (true for all
// supported shapes with non-negative factors; exponential with a < 1 is
// decreasing and not a valid bargaining cost).
func (m CostModel) Monotone() bool {
	switch m.Kind {
	case NoCost:
		return true
	case LinearCost:
		return m.Factor >= 0
	case ExpCost:
		return m.Factor >= 1
	default:
		return false
	}
}
