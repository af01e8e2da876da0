package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// sessionFor builds a standard Titanic-scale session over the catalog: the
// target gain is the catalog's max gain, the initial quote is low enough
// that only cheap bundles are affordable at first.
func sessionFor(cat *Catalog, seed uint64) SessionConfig {
	target, _ := cat.MaxGain()
	rate, base := cat.SuggestInitialPrice()
	return SessionConfig{
		U:          1000,
		Budget:     8,
		TargetGain: target,
		InitRate:   rate,
		InitBase:   base,
		EpsTask:    1e-3,
		EpsData:    1e-3,
		MaxRounds:  500,
		Seed:       seed,
	}
}

func TestStrategyStrings(t *testing.T) {
	if TaskStrategic.String() != "strategic" || TaskIncreasePrice.String() != "increase-price" ||
		TaskBisection.String() != "bisection" {
		t.Fatal("TaskStrategy.String wrong")
	}
	if DataStrategic.String() != "strategic" || DataRandomBundle.String() != "random-bundle" {
		t.Fatal("DataStrategy.String wrong")
	}
	if TaskStrategy(9).String() != "TaskStrategy(9)" || DataStrategy(9).String() != "DataStrategy(9)" {
		t.Fatal("unknown strategy String wrong")
	}
	if Success.String() != "success" || FailData.String() != "fail-data-party" ||
		FailTask.String() != "fail-task-party" || FailMaxRounds.String() != "fail-max-rounds" {
		t.Fatal("Outcome.String wrong")
	}
	if Outcome(9).String() != "Outcome(9)" {
		t.Fatal("unknown Outcome.String wrong")
	}
	if NoCost.String() != "none" || LinearCost.String() != "linear" || ExpCost.String() != "exponential" {
		t.Fatal("CostKind.String wrong")
	}
	if CostKind(9).String() != "CostKind(9)" {
		t.Fatal("unknown CostKind.String wrong")
	}
}

func TestSessionValidate(t *testing.T) {
	cat := testCatalog(t, 6, 1)
	good := sessionFor(cat, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.U = 1 // u <= p0
	if bad.Validate() == nil {
		t.Fatal("expected rationality error")
	}
	bad = good
	bad.TargetGain = 0
	if bad.Validate() == nil {
		t.Fatal("expected target gain error")
	}
	bad = good
	bad.Budget = 0.01
	if bad.Validate() == nil {
		t.Fatal("expected budget error")
	}
	bad = good
	bad.InitRate = 0
	if bad.Validate() == nil {
		t.Fatal("expected init price error")
	}
}

func TestRunPerfectStrategicSucceedsAtEquilibrium(t *testing.T) {
	cat := testCatalog(t, 6, 21)
	cfg := sessionFor(cat, 21)
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v after %d rounds", res.Outcome, len(res.Rounds))
	}
	// At success the realized gain must sit at the knee within εt (Eq. 5).
	slack := res.Final.Price.TargetGain() - res.Final.Gain
	if slack > cfg.EpsTask+cfg.EpsData+1e-9 {
		t.Fatalf("final slack %v exceeds tolerances", slack)
	}
	// The transaction must deliver the target bundle (max gain here).
	_, maxID := cat.MaxGain()
	if res.Final.BundleID != maxID {
		t.Fatalf("final bundle %d, want max-gain bundle %d", res.Final.BundleID, maxID)
	}
	// Both sides gain: positive net profit and payment above reserved base.
	if res.Final.NetProfit <= 0 {
		t.Fatalf("net profit = %v", res.Final.NetProfit)
	}
	if res.Final.Payment < cat.Bundles[maxID].Reserved.Base {
		t.Fatalf("payment %v below reserved base", res.Final.Payment)
	}
}

func TestRunPerfectFinalQuoteDominatesReserved(t *testing.T) {
	cat := testCatalog(t, 6, 23)
	res, err := RunPerfect(cat, sessionFor(cat, 23))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	r := cat.Bundles[res.Final.BundleID].Reserved
	if res.Final.Price.Rate < r.Rate || res.Final.Price.Base < r.Base {
		t.Fatalf("final quote %+v below reserved %+v", res.Final.Price, r)
	}
}

func TestRunPerfectEscalatesMonotonically(t *testing.T) {
	cat := testCatalog(t, 6, 25)
	res, err := RunPerfect(cat, sessionFor(cat, 25))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Price.High <= res.Rounds[i-1].Price.High {
			t.Fatalf("ceiling did not increase at round %d", i+1)
		}
		if res.Rounds[i].Price.Base < sessionFor(cat, 25).InitBase-1e-9 {
			t.Fatalf("base fell below P0^0 at round %d", i+1)
		}
	}
}

func TestRunPerfectStrategicQuotesSatisfyEq5(t *testing.T) {
	cat := testCatalog(t, 6, 27)
	cfg := sessionFor(cat, 27)
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if math.Abs(r.Price.TargetGain()-cfg.TargetGain) > 1e-9 {
			t.Fatalf("round %d quote violates Eq. 5: knee %v vs target %v",
				r.Round, r.Price.TargetGain(), cfg.TargetGain)
		}
	}
}

func TestRunPerfectFailsWhenNothingAffordableEver(t *testing.T) {
	cat := testCatalog(t, 6, 29)
	cfg := sessionFor(cat, 29)
	cfg.InitRate = 0.2
	cfg.InitBase = 0.001
	cfg.Budget = 0.5 // cannot escalate into any reserved price
	cfg.U = 10
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != FailData {
		t.Fatalf("outcome = %v, want FailData (Case 1)", res.Outcome)
	}
	if len(res.Rounds) != 0 {
		t.Fatalf("failed Case 1 session recorded %d rounds", len(res.Rounds))
	}
}

func TestRunPerfectWorthlessGoods(t *testing.T) {
	// A catalog whose gains are all essentially zero. The strategic data
	// party knows u (§3.3) and declines rather than provoke Case 4; the
	// random-bundle baseline offers anyway and the task party walks.
	zero := GainFunc(func([]int) float64 { return 1e-9 })
	cat := NewCatalog(4, CatalogConfig{Size: 8, BaseRate: 2, BaseBase: 0.2}, rng.New(31), zero)
	cfg := SessionConfig{
		U: 100, Budget: 8, TargetGain: 0.2,
		InitRate: 3, InitBase: 0.5, EpsTask: 1e-4, EpsData: 1e-4,
		MaxRounds: 100, Seed: 31,
	}
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != FailData {
		t.Fatalf("strategic outcome = %v, want FailData (seller declines)", res.Outcome)
	}
	cfg.DataStrategy = DataRandomBundle
	res, err = RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != FailTask {
		t.Fatalf("random-bundle outcome = %v, want FailTask (Case 4)", res.Outcome)
	}
}

func TestRunPerfectDeterministic(t *testing.T) {
	cat := testCatalog(t, 6, 33)
	a, err := RunPerfect(cat, sessionFor(cat, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPerfect(cat, sessionFor(cat, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || len(a.Rounds) != len(b.Rounds) ||
		a.Final.Payment != b.Final.Payment {
		t.Fatal("RunPerfect not deterministic")
	}
}

func TestRunPerfectIncreasePriceBaseline(t *testing.T) {
	cat := testCatalog(t, 6, 35)
	cfg := sessionFor(cat, 35)
	cfg.TaskStrategy = TaskIncreasePrice
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline still terminates (success or round exhaustion) and its
	// quotes are free to violate Eq. 5.
	if res.Outcome == FailData {
		t.Fatalf("unexpected outcome %v", res.Outcome)
	}
	violated := false
	for _, r := range res.Rounds[1:] {
		if math.Abs(r.Price.TargetGain()-cfg.TargetGain) > 1e-6 {
			violated = true
		}
	}
	if len(res.Rounds) > 3 && !violated {
		t.Fatal("IncreasePrice quotes all satisfied Eq. 5, not arbitrary")
	}
}

func TestRunPerfectRandomBundleBaseline(t *testing.T) {
	cat := testCatalog(t, 6, 37)
	cfg := sessionFor(cat, 37)
	cfg.DataStrategy = DataRandomBundle
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Random bundles either luck into Case 5 or (commonly) trip Case 4 /
	// exhaustion; all are legal terminations.
	switch res.Outcome {
	case Success, FailTask, FailMaxRounds:
	default:
		t.Fatalf("unexpected outcome %v", res.Outcome)
	}
}

// Strategic must dominate the baselines on net profit on average — the core
// claim of Figure 2.
func TestStrategicDominatesBaselines(t *testing.T) {
	cat := testCatalog(t, 8, 39)
	const runs = 30
	mean := func(task TaskStrategy, data DataStrategy) float64 {
		sum := 0.0
		for s := uint64(0); s < runs; s++ {
			cfg := sessionFor(cat, s)
			cfg.TaskStrategy = task
			cfg.DataStrategy = data
			res, err := RunPerfect(cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == Success {
				sum += res.Final.NetProfit
			}
			// failed runs contribute zero
		}
		return sum / runs
	}
	strategic := mean(TaskStrategic, DataStrategic)
	increase := mean(TaskIncreasePrice, DataStrategic)
	random := mean(TaskStrategic, DataRandomBundle)
	if strategic <= increase {
		t.Fatalf("strategic %v not above increase-price %v", strategic, increase)
	}
	if strategic <= random {
		t.Fatalf("strategic %v not above random-bundle %v", strategic, random)
	}
}

// The future-work bisection strategy must close successful sessions in far
// fewer rounds than linear pool escalation, at an equal-or-higher payment —
// the rounds-vs-overpayment trade BenchmarkAblationBisection measures.
func TestBisectionFasterButPricier(t *testing.T) {
	cat := testCatalog(t, 8, 43)
	const runs = 20
	var escRounds, bisRounds, escPay, bisPay float64
	var escN, bisN int
	for s := uint64(0); s < runs; s++ {
		cfg := sessionFor(cat, s)
		esc, err := RunPerfect(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TaskStrategy = TaskBisection
		bis, err := RunPerfect(cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if esc.Outcome == Success {
			escRounds += float64(len(esc.Rounds))
			escPay += esc.Final.Payment
			escN++
		}
		if bis.Outcome == Success {
			bisRounds += float64(len(bis.Rounds))
			bisPay += bis.Final.Payment
			bisN++
		}
	}
	if escN == 0 || bisN == 0 {
		t.Fatalf("successes: escalation %d, bisection %d", escN, bisN)
	}
	if bisRounds/float64(bisN) >= escRounds/float64(escN) {
		t.Fatalf("bisection not faster: %.1f vs %.1f rounds",
			bisRounds/float64(bisN), escRounds/float64(escN))
	}
	if bisPay/float64(bisN) < escPay/float64(escN)-1e-9 {
		t.Fatalf("bisection paid less than escalation: %v vs %v",
			bisPay/float64(bisN), escPay/float64(escN))
	}
}

func TestBisectionProbesAreMonotone(t *testing.T) {
	cat := testCatalog(t, 8, 47)
	cfg := sessionFor(cat, 47)
	cfg.TaskStrategy = TaskBisection
	res, err := RunPerfect(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Price.High <= res.Rounds[i-1].Price.High {
			t.Fatalf("probe ceiling did not increase at round %d", i+1)
		}
	}
	if res.Outcome == Success && len(res.Rounds) > 12 {
		t.Fatalf("bisection took %d rounds; expected O(log pool)", len(res.Rounds))
	}
}

func TestRunPerfectRejectsBadConfig(t *testing.T) {
	cat := testCatalog(t, 4, 41)
	cfg := sessionFor(cat, 41)
	cfg.U = 0.1
	if _, err := RunPerfect(cat, cfg); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := RunPerfect(&Catalog{}, sessionFor(cat, 41)); err == nil {
		t.Fatal("expected empty catalog error")
	}
}

func TestFinalNetRevenue(t *testing.T) {
	r := &Result{Final: RoundRecord{NetProfit: 5, Payment: 2, TaskCost: 1, DataCost: 0.5}}
	task, data := r.FinalNetRevenue()
	if task != 4 || data != 1.5 {
		t.Fatalf("FinalNetRevenue = %v, %v", task, data)
	}
}

// TestPoolSortMatchesSortSlice: the strategic pool sort (slices.SortFunc
// with byHigh) leaves every pool in the order the reflection-based
// sort.Slice with a < on High did, ties included: both are the same
// pattern-defeating quicksort, and equal ceilings with different rates
// or bases would show any difference in where ties land.
func TestPoolSortMatchesSortSlice(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 2000; trial++ {
		n := src.IntN(140)
		pool := make([]QuotedPrice, n)
		for i := range pool {
			// Few distinct ceilings, so most pools hold long runs of ties.
			pool[i] = QuotedPrice{Rate: src.Float64(), Base: float64(i), High: float64(src.IntN(1 + n/4))}
			if trial%7 == 0 {
				pool[i].High = src.Float64()
			}
		}
		want := slices.Clone(pool)
		sort.Slice(want, func(i, j int) bool { return want[i].High < want[j].High })
		slices.SortFunc(pool, byHigh)
		if !slices.Equal(pool, want) {
			t.Fatalf("trial %d (n=%d): SortFunc order differs from sort.Slice", trial, n)
		}
	}
	pool := make([]QuotedPrice, 100)
	for i := range pool {
		pool[i] = QuotedPrice{Rate: 1, Base: 1, High: src.Float64()}
	}
	if allocs := testing.AllocsPerRun(10, func() { slices.SortFunc(pool, byHigh) }); allocs != 0 {
		t.Fatalf("pool sort allocates %v times", allocs)
	}
}

// barrenSeller offers one bundle in round 1 and nothing after, recording
// how many offers it made and the round the buyer walked away at.
type barrenSeller struct{ offers, abandoned int }

func (s *barrenSeller) Offer(round int, _ QuotedPrice) (SellerOffer, error) {
	s.offers++
	if round == 1 {
		return SellerOffer{BundleID: 0, Features: []int{0}, TargetBundleID: -1}, nil
	}
	return SellerOffer{Fail: true, TargetBundleID: -1}, nil
}

func (s *barrenSeller) Settle(int, RoundRecord, SettleDecision) error { return nil }

func (s *barrenSeller) Abandon(round int) error {
	s.abandoned = round
	return nil
}

// TestPerfectToleratesPatienceBarrenOffers pins Case 1 after round 1: a
// perfect session tolerates exactly barrenPatience() consecutive barren
// offers and walks away with FailData on the next one.
func TestPerfectToleratesPatienceBarrenOffers(t *testing.T) {
	cfg := SessionConfig{
		U: 1000, Budget: 8, TargetGain: 0.3, InitRate: 1, InitBase: 0.5,
		EpsTask: 1e-3, EpsData: 1e-3, MaxRounds: 500, Seed: 9,
	}
	// Round 1 realizes half the target: above break-even, short of the
	// target, so the buyer escalates.
	gains := GainFunc(func([]int) float64 { return 0.15 })
	seller := &barrenSeller{}
	res, err := NewSession(nil, cfg).RunPerfectWith(context.Background(), seller, gains)
	if err != nil {
		t.Fatal(err)
	}
	patience := (&perfectPolicy{}).barrenPatience()
	if res.Outcome != FailData || len(res.Rounds) != 1 {
		t.Fatalf("outcome %v after %d realized rounds, want FailData after 1", res.Outcome, len(res.Rounds))
	}
	if want := 2 + patience; seller.offers != want || seller.abandoned != want {
		t.Fatalf("walked away at round %d after %d offers, want both %d (round 1 plus %d tolerated barren offers plus one)",
			seller.abandoned, seller.offers, want, patience)
	}
}
