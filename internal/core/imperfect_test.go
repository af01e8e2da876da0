package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func imperfectFor(cat *Catalog, seed uint64) (SessionConfig, ImperfectParams) {
	return sessionFor(cat, seed), ImperfectParams{ExplorationRounds: 40, PricePool: 120}
}

func TestRunImperfectTerminates(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	cfg, params := imperfectFor(cat, 61)
	res, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds played")
	}
	if len(res.Rounds) > 500 {
		t.Fatalf("%d rounds exceeds MaxRounds", len(res.Rounds))
	}
	if len(res.TaskMSE) != len(res.Rounds) || len(res.DataMSE) != len(res.Rounds) {
		t.Fatalf("MSE series lengths %d/%d vs %d rounds",
			len(res.TaskMSE), len(res.DataMSE), len(res.Rounds))
	}
}

func TestRunImperfectNoTerminationDuringExploration(t *testing.T) {
	cat := testCatalog(t, 6, 63)
	cfg, params := imperfectFor(cat, 63)
	res, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < params.ExplorationRounds && res.Outcome != FailMaxRounds {
		t.Fatalf("terminated with %v after %d rounds, inside the %d-round exploration phase",
			res.Outcome, len(res.Rounds), params.ExplorationRounds)
	}
}

func TestRunImperfectDeterministic(t *testing.T) {
	cat := testCatalog(t, 6, 65)
	cfg, params := imperfectFor(cat, 9)
	a, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || len(a.Rounds) != len(b.Rounds) {
		t.Fatal("RunImperfect not deterministic")
	}
	for i := range a.TaskMSE {
		if a.TaskMSE[i] != b.TaskMSE[i] {
			t.Fatal("estimator training not deterministic")
		}
	}
}

// Figure 4's claim: the estimators converge — late-round MSE is well below
// early-round MSE for both parties.
func TestEstimatorMSEConverges(t *testing.T) {
	cat := testCatalog(t, 8, 67)
	cfg, params := imperfectFor(cat, 67)
	params.ExplorationRounds = 120
	cfg.MaxRounds = 200
	res, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DataMSE) < 60 {
		t.Fatalf("only %d rounds, need a longer trace", len(res.DataMSE))
	}
	head := stats.Mean(res.DataMSE[:20])
	tail := stats.Mean(res.DataMSE[len(res.DataMSE)-20:])
	if tail >= head {
		t.Fatalf("data-party estimator MSE did not fall: %v -> %v", head, tail)
	}
	headF := stats.Mean(res.TaskMSE[:20])
	tailF := stats.Mean(res.TaskMSE[len(res.TaskMSE)-20:])
	if tailF >= headF {
		t.Fatalf("task-party estimator MSE did not fall: %v -> %v", headF, tailF)
	}
}

// Table 4's claim: imperfect-information outcomes are comparable to perfect
// ones — same ballpark net profit when both succeed.
func TestImperfectComparableToPerfect(t *testing.T) {
	cat := testCatalog(t, 8, 69)
	var perfectNet, imperfectNet []float64
	for s := uint64(0); s < 10; s++ {
		pc := sessionFor(cat, s)
		pr, err := RunPerfect(cat, pc)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Outcome == Success {
			perfectNet = append(perfectNet, pr.Final.NetProfit)
		}
		ic, ip := imperfectFor(cat, s)
		ir, err := RunImperfect(cat, ic, ip)
		if err != nil {
			t.Fatal(err)
		}
		if ir.Outcome == Success {
			imperfectNet = append(imperfectNet, ir.Final.NetProfit)
		}
	}
	if len(perfectNet) == 0 || len(imperfectNet) == 0 {
		t.Fatalf("successes: perfect %d, imperfect %d", len(perfectNet), len(imperfectNet))
	}
	p, i := stats.Mean(perfectNet), stats.Mean(imperfectNet)
	if i < 0.3*p {
		t.Fatalf("imperfect net profit %v collapsed vs perfect %v", i, p)
	}
}

func TestRunImperfectRejectsBadConfig(t *testing.T) {
	cat := testCatalog(t, 4, 71)
	cfg, params := imperfectFor(cat, 71)
	cfg.U = 0.01
	if _, err := RunImperfect(cat, cfg, params); err == nil {
		t.Fatal("expected config error")
	}
	good, _ := imperfectFor(cat, 71)
	if _, err := RunImperfect(&Catalog{}, good, params); err == nil {
		t.Fatal("expected empty catalog error")
	}
}

func TestSamplePricePoolSatisfiesEq5(t *testing.T) {
	cat := testCatalog(t, 6, 73)
	s := sessionFor(cat, 73).withDefaults()
	pool := samplePricePool(s, 100, rng.New(1))
	if len(pool) != 100 {
		t.Fatalf("pool size = %d", len(pool))
	}
	for _, q := range pool {
		if q.Validate() != nil {
			t.Fatalf("invalid pool quote %+v", q)
		}
		if diff := q.TargetGain() - s.TargetGain; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pool quote violates Eq. 5: knee %v", q.TargetGain())
		}
		if q.High > s.Budget || q.Base < s.InitBase || q.Rate < s.InitRate || q.Rate > s.U {
			t.Fatalf("pool quote outside constraints: %+v", q)
		}
	}
}

func TestImperfectResultFinalMatchesLastRound(t *testing.T) {
	cat := testCatalog(t, 6, 75)
	cfg, params := imperfectFor(cat, 75)
	res, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if res.Final != last {
		t.Fatal("Final is not the last round record")
	}
}

// RunImperfectWith against an explicitly constructed EstimatorSeller must
// replay RunImperfect bit for bit: the two entry points share the unified
// loop and the imperfect seed convention, which is exactly what makes the
// networked game (a remote EstimatorSeller) bit-identical too.
func TestRunImperfectWithMatchesInProcess(t *testing.T) {
	cat := testCatalog(t, 6, 77)
	cfg, params := imperfectFor(cat, 77)
	want, err := RunImperfect(cat, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	seller := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: params,
	})
	gains := GainFunc(func(features []int) float64 {
		if id, ok := cat.FindBundle(features); ok {
			return cat.Gain(id)
		}
		return 0
	})
	got, err := NewSession(cat, cfg).RunImperfectWith(context.Background(), params, seller, gains)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunImperfectWith diverged from RunImperfect:\nwith:      outcome=%v rounds=%d final=%+v\nin-process: outcome=%v rounds=%d final=%+v",
			got.Outcome, len(got.Rounds), got.Final, want.Outcome, len(want.Rounds), want.Final)
	}
}

// The imperfect seller must never let the game terminate inside the
// exploration phase: no Fail offers, no Accept commitments.
func TestEstimatorSellerExplorationNeverTerminates(t *testing.T) {
	cat := testCatalog(t, 6, 79)
	cfg, params := imperfectFor(cat, 79)
	seller := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: params,
	})
	// A quote nothing in the catalog can satisfy.
	starve := QuotedPrice{Rate: 1e-9, Base: 0, High: 1e-9}
	for T := 1; T <= params.ExplorationRounds; T++ {
		offer, err := seller.Offer(T, starve)
		if err != nil {
			t.Fatal(err)
		}
		if offer.Fail || offer.Accept {
			t.Fatalf("round %d: exploration offer terminated the game: %+v", T, offer)
		}
		rec := RoundRecord{Round: T, Price: starve, BundleID: offer.BundleID, Gain: cat.Gain(offer.BundleID)}
		if err := seller.Settle(T, rec, SettleContinue); err != nil {
			t.Fatal(err)
		}
	}
	if offer, _ := seller.Offer(params.ExplorationRounds+1, starve); !offer.Fail {
		t.Fatal("post-exploration starvation quote was not a Case I fail")
	}
	if got := len(seller.DataMSE()); got != params.ExplorationRounds {
		t.Fatalf("DataMSE has %d entries, want %d", got, params.ExplorationRounds)
	}
}

// RunPerfect plays Algorithm 1: bargaining under perfect performance
// information over the catalog, returning the full trace.
//
// It is the blocking, observer-free form of Session.RunPerfect.
func RunPerfect(cat *Catalog, cfg SessionConfig) (*Result, error) {
	return NewSession(cat, cfg).RunPerfect(context.Background())
}

// RunImperfect plays the estimation-based bargaining of §3.5 over the
// catalog. The catalog's gains stand in for the VFL courses: each round the
// selected bundle's gain is "realized" by running VFL (a catalog lookup
// here, since the oracle memoizes training) and then used to update both
// estimators.
//
// It is the blocking, observer-free form of Session.RunImperfect.
func RunImperfect(cat *Catalog, cfg SessionConfig, params ImperfectParams) (*ImperfectResult, error) {
	return NewSession(cat, cfg).RunImperfect(context.Background(), params)
}
