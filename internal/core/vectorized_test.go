package core

// Golden bit-identity suite for the vectorized imperfect-information hot
// path. The batched scan kernels (PriceEstimator.PredictPool,
// BundleEstimator.PredictAll, and the rewritten nextImperfectQuote /
// caseTwoChoice) must be bit-for-bit equal to the per-sample loops they
// replaced: the goldens below were captured by running RunImperfect on the
// pre-rewrite per-sample implementation, and the reference functions here
// preserve that implementation verbatim for direct comparison.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// imperfectGolden pins one full RunImperfect trajectory: outcome, round
// count, the first/last/sum of both Figure 4 MSE series, and the final
// settled record — all as exact float64 bit patterns. Captured on the
// pre-rewrite per-sample scan implementation.
type imperfectGolden struct {
	feats, explore    int
	catSeed, sessSeed uint64
	outcome           Outcome
	rounds            int
	taskMSEFirst      uint64
	taskMSELast       uint64
	dataMSEFirst      uint64
	dataMSELast       uint64
	taskMSESum        uint64
	dataMSESum        uint64
	finalGain         uint64
	finalPayment      uint64
	finalNet          uint64
	finalBundle       int
	targetBundle      int
}

var imperfectGoldens = []imperfectGolden{
	{feats: 6, catSeed: 61, sessSeed: 61, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f620de1f6e438a6, taskMSELast: 0x3ead53c6ccb8c80b,
		dataMSEFirst: 0x3f560dcd40df4dd2, dataMSELast: 0x3e9a7084f3d41c5e,
		taskMSESum: 0x3fa50ae590bd9a00, dataMSESum: 0x3fad3327a5fe1a67,
		finalGain: 0x3fbaac53c61b11fa, finalPayment: 0x40190ee7d135eb6a,
		finalNet: 0x40587b5b526310d7, finalBundle: 15, targetBundle: 6},
	{feats: 6, catSeed: 65, sessSeed: 9, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f71ea73702cb211, taskMSELast: 0x3f366dc436bc2d97,
		dataMSEFirst: 0x3f282f393f38e6ee, dataMSELast: 0x3f2873e5b117eaea,
		taskMSESum: 0x3fbb2122e27c9cd8, dataMSESum: 0x3fa5d94914b8ebbc,
		finalGain: 0x3fb6f386d9f45bc8, finalPayment: 0x4015d352150164a5,
		finalNet: 0x40550c9c8f888b57, finalBundle: 16, targetBundle: 6},
	{feats: 8, catSeed: 67, sessSeed: 67, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f86b76ade8b9e38, taskMSELast: 0x3f7b203557922550,
		dataMSEFirst: 0x3f8d44bc106aad74, dataMSELast: 0x3ef11e814b0f2156,
		taskMSESum: 0x3fcd33144c1c7cf0, dataMSESum: 0x3fbf6278fe06f641,
		finalGain: 0x3fc5700cfd205f25, finalPayment: 0x401f7ffd9f1942d0,
		finalNet: 0x4063f36cc238d2d4, finalBundle: 10, targetBundle: 8},
	{feats: 7, catSeed: 91, sessSeed: 17, explore: 40, outcome: Success, rounds: 41,
		taskMSEFirst: 0x3f9322f94b4e8c4c, taskMSELast: 0x3e86685c34deb8f0,
		dataMSEFirst: 0x3f571c353d3e38a7, dataMSELast: 0x3ee8ed91e1558377,
		taskMSESum: 0x3fd0d272ceabdd63, dataMSESum: 0x3fbe7b72a6232717,
		finalGain: 0x3fc67994dd7e3c64, finalPayment: 0x401f7e53a1e11db0,
		finalNet: 0x4064f6c8c33e3e0c, finalBundle: 13, targetBundle: 7},
	// Short exploration phases leave the estimators noisy, exercising the
	// post-exploration batched scans over many rounds (the third case runs
	// the full 500-round horizon).
	{feats: 6, catSeed: 61, sessSeed: 5, explore: 8, outcome: Success, rounds: 9,
		taskMSEFirst: 0x3f8b55e32711a370, taskMSELast: 0x3f2151be060f9de1,
		dataMSEFirst: 0x3f60d8f0a6ad24a5, dataMSELast: 0x3f7bc8f0d38d0791,
		taskMSESum: 0x3fd5e7c31445583f, dataMSESum: 0x3f9538d1ed75576c,
		finalGain: 0x3f85c3f486efdcc0, finalPayment: 0x3ff42a9830256121,
		finalNet: 0x4022bc09c5c19170, finalBundle: 5, targetBundle: 6},
	{feats: 8, catSeed: 67, sessSeed: 23, explore: 8, outcome: FailMaxRounds, rounds: 500,
		taskMSEFirst: 0x3f156534ce6ecc6a, taskMSELast: 0x3f070c04365f5f5f,
		dataMSEFirst: 0x3f4f7f9b48e09202, dataMSELast: 0x3e3fc6dfd68816fd,
		taskMSESum: 0x3fcb3cf43d2f0b43, dataMSESum: 0x3faae71fabe90f9b,
		finalGain: 0x3fc22c2e37a482b8, finalPayment: 0x4008aadac65e1b00,
		finalNet: 0x40615c79b73d2f3c, finalBundle: 12, targetBundle: 8},
	{feats: 7, catSeed: 91, sessSeed: 3, explore: 8, outcome: Success, rounds: 9,
		taskMSEFirst: 0x3f052233ed2e0ce6, taskMSELast: 0x3f6c8d6f0ea8491e,
		dataMSEFirst: 0x3f72f808a34d2481, dataMSELast: 0x3f8b6adf8316ddad,
		taskMSESum: 0x3f8d796b3dd91238, dataMSESum: 0x3fb1b25c9052997a,
		finalGain: 0x3f979d2673a8e13a, finalPayment: 0x4001c4ae4d0bd436,
		finalNet: 0x4034d6e1c351716c, finalBundle: 6, targetBundle: 7},
}

func bitsOf(v float64) uint64 { return math.Float64bits(v) }

func sumBits(s []float64) uint64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return bitsOf(sum)
}

// TestRunImperfectMatchesPreRewriteGoldens replays every golden trajectory
// through the vectorized implementation and demands exact bit equality with
// the per-sample captures — end-to-end proof that batching the estimator
// scans changed no float anywhere in the game.
func TestRunImperfectMatchesPreRewriteGoldens(t *testing.T) {
	for _, g := range imperfectGoldens {
		cat := testCatalog(t, g.feats, g.catSeed)
		cfg := sessionFor(cat, g.sessSeed)
		params := ImperfectParams{ExplorationRounds: g.explore, PricePool: 120}
		res, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Rounds)
		if res.Outcome != g.outcome || n != g.rounds {
			t.Fatalf("cat %d/%d: outcome %v after %d rounds, golden %v after %d",
				g.catSeed, g.sessSeed, res.Outcome, n, g.outcome, g.rounds)
		}
		if len(res.TaskMSE) != n || len(res.DataMSE) != n {
			t.Fatalf("cat %d/%d: MSE series %d/%d entries over %d rounds",
				g.catSeed, g.sessSeed, len(res.TaskMSE), len(res.DataMSE), n)
		}
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"taskMSE[0]", bitsOf(res.TaskMSE[0]), g.taskMSEFirst},
			{"taskMSE[n-1]", bitsOf(res.TaskMSE[n-1]), g.taskMSELast},
			{"dataMSE[0]", bitsOf(res.DataMSE[0]), g.dataMSEFirst},
			{"dataMSE[n-1]", bitsOf(res.DataMSE[n-1]), g.dataMSELast},
			{"sum(taskMSE)", sumBits(res.TaskMSE), g.taskMSESum},
			{"sum(dataMSE)", sumBits(res.DataMSE), g.dataMSESum},
			{"final gain", bitsOf(res.Final.Gain), g.finalGain},
			{"final payment", bitsOf(res.Final.Payment), g.finalPayment},
			{"final net profit", bitsOf(res.Final.NetProfit), g.finalNet},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("cat %d/%d: %s = %#x, golden %#x", g.catSeed, g.sessSeed, c.name, c.got, c.want)
			}
		}
		if res.Final.BundleID != g.finalBundle || res.TargetBundleID != g.targetBundle {
			t.Errorf("cat %d/%d: final bundle %d (target %d), golden %d (%d)",
				g.catSeed, g.sessSeed, res.Final.BundleID, res.TargetBundleID, g.finalBundle, g.targetBundle)
		}
	}
}

// TestRunImperfectDeterministicDeepEqual replays one configuration twice
// and demands the full ImperfectResult — every round record and both MSE
// series — be DeepEqual: the scan buffers reused across rounds must never
// leak state between runs.
func TestRunImperfectDeterministicDeepEqual(t *testing.T) {
	for _, g := range imperfectGoldens[:3] {
		cat := testCatalog(t, g.feats, g.catSeed)
		cfg := sessionFor(cat, g.sessSeed)
		params := ImperfectParams{ExplorationRounds: g.explore, PricePool: 120}
		a, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunImperfect(cat, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cat %d/%d: identical configurations played different games", g.catSeed, g.sessSeed)
		}
	}
}

// trainedPriceEstimator builds f and trains it on a deterministic stream of
// (quote, gain) pairs so the scan comparisons run against non-trivial
// weights.
func trainedPriceEstimator(cfg SessionConfig, pool []QuotedPrice, steps int) *PriceEstimator {
	src := rng.New(cfg.Seed)
	gainScale := gainScaleFor(cfg.TargetGain)
	maxRate := math.Min(cfg.U, (cfg.Budget-cfg.InitBase)/cfg.TargetGain)
	f := NewPriceEstimator(maxRate, cfg.Budget, gainScale, src.Split(1).Uint64())
	train := src.Split(9)
	for k := 0; k < steps; k++ {
		q := pool[train.IntN(len(pool))]
		f.Update(q, train.Float64()*cfg.TargetGain)
	}
	return f
}

// nextImperfectQuoteReference is the pre-rewrite per-sample scan, preserved
// verbatim: one f.Predict per pool member.
func nextImperfectQuoteReference(s SessionConfig, f *PriceEstimator, pool []QuotedPrice) QuotedPrice {
	bestFiltered, bestAny := -1, -1
	var bestFilteredProfit, bestAnyProfit float64
	for i, q := range pool {
		pred := f.Predict(q)
		profit := s.U*pred - q.Payment(pred)
		if bestAny < 0 || profit > bestAnyProfit {
			bestAny, bestAnyProfit = i, profit
		}
		if pred >= q.TargetGain()-s.EpsTask {
			atKnee := s.U*q.TargetGain() - q.High
			if bestFiltered < 0 || atKnee > bestFilteredProfit {
				bestFiltered, bestFilteredProfit = i, atKnee
			}
		}
	}
	if bestFiltered >= 0 {
		return pool[bestFiltered]
	}
	return pool[bestAny]
}

func TestPredictPoolBitIdenticalToPerSample(t *testing.T) {
	cat := testCatalog(t, 7, 31)
	cfg := sessionFor(cat, 31).withDefaults()
	pool := samplePricePool(cfg, 150, rng.New(cfg.Seed).Split(3))
	f := trainedPriceEstimator(cfg, pool, 60)
	batched := f.PredictPool(pool)
	if len(batched) != len(pool) {
		t.Fatalf("PredictPool returned %d predictions for %d quotes", len(batched), len(pool))
	}
	// f.Predict reuses f's input scratch, and PredictPool reuses its output
	// slice — snapshot the batch before the per-sample walk.
	snap := append([]float64(nil), batched...)
	for i, q := range pool {
		if got, want := bitsOf(snap[i]), bitsOf(f.Predict(q)); got != want {
			t.Fatalf("quote %d: batched %#x, per-sample %#x", i, got, want)
		}
	}
}

func TestNextImperfectQuoteMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 17, 52} {
		cat := testCatalog(t, 6, seed)
		cfg := sessionFor(cat, seed).withDefaults()
		pool := samplePricePool(cfg, 120, rng.New(cfg.Seed).Split(3))
		for _, steps := range []int{0, 25, 120} {
			f := trainedPriceEstimator(cfg, pool, steps)
			want := nextImperfectQuoteReference(cfg, f, pool)
			got := nextImperfectQuote(cfg, f, pool, false, nil)
			if got != want {
				t.Fatalf("seed %d steps %d: batched scan chose %+v, reference %+v", seed, steps, got, want)
			}
		}
	}
}

// caseTwoChoiceReference is the pre-rewrite per-sample Case II policy,
// preserved verbatim: a whole-inventory g.Predict scan, a second scan over
// the affordable set, and a third Predict for the accept check.
func caseTwoChoiceReference(s *EstimatorSeller, q QuotedPrice, affordable []int) (bundleID int, accept bool) {
	knee := q.TargetGain()
	minAll, maxAll := math.Inf(1), math.Inf(-1)
	for i := range s.cat.Bundles {
		pred := s.g.Predict(s.cat.Bundles[i].Features)
		minAll = math.Min(minAll, pred)
		maxAll = math.Max(maxAll, pred)
	}
	bestBelow, bestAbove := -1, -1
	var bestBelowPred, bestAbovePred float64
	maxID, minID := affordable[0], affordable[0]
	maxPred, minPred := math.Inf(-1), math.Inf(1)
	for _, id := range affordable {
		pred := s.g.Predict(s.cat.Bundles[id].Features)
		if pred > maxPred {
			maxPred, maxID = pred, id
		}
		if pred < minPred {
			minPred, minID = pred, id
		}
		if pred <= knee {
			if bestBelow < 0 || pred > bestBelowPred {
				bestBelow, bestBelowPred = id, pred
			}
		} else if bestAbove < 0 || pred < bestAbovePred {
			bestAbove, bestAbovePred = id, pred
		}
	}
	switch {
	case knee-maxAll > s.cfg.EpsData:
		return maxID, true
	case minAll-knee > s.cfg.EpsData:
		return minID, true
	default:
		if bestBelow >= 0 {
			bundleID = bestBelow
		} else {
			bundleID = bestAbove
		}
		accept = knee-s.g.Predict(s.cat.Bundles[bundleID].Features) <= s.cfg.EpsData
		return bundleID, accept
	}
}

// trainedEstimatorSeller builds the data party and trains g on a
// deterministic stream of (bundle, gain) settlements.
func trainedEstimatorSeller(cat *Catalog, cfg SessionConfig, steps int) *EstimatorSeller {
	s := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData,
		Params: ImperfectParams{ExplorationRounds: 10},
	})
	train := rng.New(cfg.Seed).Split(11)
	for k := 0; k < steps; k++ {
		id := train.IntN(cat.Len())
		s.g.Update(cat.Bundles[id].Features, cat.Gain(id))
	}
	return s
}

func TestPredictAllBitIdenticalToPerSample(t *testing.T) {
	cat := testCatalog(t, 8, 43)
	cfg := sessionFor(cat, 43)
	s := trainedEstimatorSeller(cat, cfg, 80)
	batched := s.g.PredictAll(s.featureSets)
	if len(batched) != cat.Len() {
		t.Fatalf("PredictAll returned %d predictions for %d bundles", len(batched), cat.Len())
	}
	snap := append([]float64(nil), batched...)
	for i := range cat.Bundles {
		if got, want := bitsOf(snap[i]), bitsOf(s.g.Predict(cat.Bundles[i].Features)); got != want {
			t.Fatalf("bundle %d: batched %#x, per-sample %#x", i, got, want)
		}
	}
}

func TestCaseTwoChoiceMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 29, 83} {
		cat := testCatalog(t, 7, seed)
		cfg := sessionFor(cat, seed).withDefaults()
		pool := samplePricePool(cfg, 80, rng.New(cfg.Seed).Split(3))
		for _, steps := range []int{0, 40, 150} {
			s := trainedEstimatorSeller(cat, cfg, steps)
			compared := 0
			for _, q := range pool {
				affordable := cat.Affordable(q)
				if len(affordable) == 0 {
					continue
				}
				wantID, wantAccept := caseTwoChoiceReference(s, q, affordable)
				gotID, gotAccept := s.caseTwoChoice(q, affordable)
				if gotID != wantID || gotAccept != wantAccept {
					t.Fatalf("seed %d steps %d: batched (%d, %v), reference (%d, %v)",
						seed, steps, gotID, gotAccept, wantID, wantAccept)
				}
				compared++
			}
			if compared == 0 {
				t.Fatalf("seed %d: no quote in the pool admitted any bundle", seed)
			}
		}
	}
}

// TestBatchImperfectMatchesStandaloneSessions pins imperfect sessions
// fanned out by Batch to the single-session path: every slot must be
// DeepEqual to a standalone RunImperfect with the same configuration,
// regardless of the worker count.
func TestBatchImperfectMatchesStandaloneSessions(t *testing.T) {
	cat := testCatalog(t, 6, 61)
	params := ImperfectParams{ExplorationRounds: 12, PricePool: 60}
	cfgs := make([]SessionConfig, 6)
	ref := make([]*ImperfectResult, len(cfgs))
	for i := range cfgs {
		cfgs[i] = sessionFor(cat, uint64(100+i))
		res, err := RunImperfect(cat, cfgs[i], params)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res
	}
	for _, workers := range []int{1, 3, 0} {
		got, err := Batch(t.Context(), len(cfgs), workers, func(ctx context.Context, i int) (*ImperfectResult, error) {
			return NewSession(cat, cfgs[i]).RunImperfect(ctx, params)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers %d: batch slot %d differs from the standalone session", workers, i)
			}
		}
	}
}
