package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// dirtyGradients leaves a nonzero gradient pending in every tensor, as a
// Forward/Backward without its Step would.
func dirtyGradients(params []nn.Param) {
	for _, p := range params {
		for i := range p.G {
			p.G[i] = 0.25
		}
	}
}

// recycledPrice draws a price estimator that the pool hands back after a
// dirty session: trained, then cut with gradients pending. The race
// detector's pool drops some of what it is given, so it retries until the
// pool returns the estimator it was given.
func recycledPrice(t *testing.T, rateScale, payScale, gainScale float64, seed uint64) *PriceEstimator {
	t.Helper()
	for range 100 {
		d := NewPriceEstimator(20, 8, 0.1, 3)
		for i := range 12 {
			d.Update(QuotedPrice{Rate: 5 + float64(i), Base: 1, High: 2 + float64(i)}, 0.02*float64(i))
		}
		dirtyGradients(d.reg.Params())
		d.release()
		if e := NewPriceEstimator(rateScale, payScale, gainScale, seed); e == d {
			return e
		}
	}
	t.Fatal("the pool never handed a released price estimator back")
	return nil
}

// recycledBundle is recycledPrice for the bundle estimator.
func recycledBundle(t *testing.T, numFeatures int, gainScale float64, seed uint64) *BundleEstimator {
	t.Helper()
	for range 100 {
		d := NewBundleEstimator(numFeatures, 0.1, 3)
		for i := range 12 {
			d.Update([]int{i % numFeatures, (i + 2) % numFeatures}, 0.01*float64(i))
		}
		dirtyGradients(d.params)
		d.release()
		if e := NewBundleEstimator(numFeatures, gainScale, seed); e == d {
			return e
		}
	}
	t.Fatal("the pool never handed a released bundle estimator back")
	return nil
}

// TestRecycledEstimatorsEqualFresh: an estimator the pool hands back after
// a dirty session cannot be told from one built outside the pool — same
// weights and Adam state, same prediction, and the same again after one
// update (which reads the gradients the re-seed must have zeroed).
func TestRecycledEstimatorsEqualFresh(t *testing.T) {
	const numFeatures = 5
	q := QuotedPrice{Rate: 7, Base: 1.5, High: 4}
	bundle := []int{0, 2, 4}

	f := recycledPrice(t, 30, 10, 1, 9)
	g := recycledBundle(t, numFeatures, 1, 9)
	for priceEstimators.Get() != nil {
	}
	for bundlePool(numFeatures).Get() != nil {
	}
	wantF := NewPriceEstimator(30, 10, 1, 9)
	wantG := NewBundleEstimator(numFeatures, 1, 9)
	if wantF == f || wantG == g {
		t.Fatal("a drained pool handed out a recycled estimator")
	}

	for step := 0; step < 3; step++ {
		if got, want := f.State(), wantF.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: recycled price estimator state differs from a fresh one", step)
		}
		if got, want := f.Predict(q), wantF.Predict(q); got != want {
			t.Fatalf("step %d: recycled price estimator predicts %v, fresh %v", step, got, want)
		}
		if got, want := g.State(), wantG.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: recycled bundle estimator state differs from a fresh one", step)
		}
		if got, want := g.Predict(bundle), wantG.Predict(bundle); got != want {
			t.Fatalf("step %d: recycled bundle estimator predicts %v, fresh %v", step, got, want)
		}
		if a, b := f.Update(q, 0.3), wantF.Update(q, 0.3); a != b {
			t.Fatalf("step %d: price estimator update loss %v, fresh %v", step, a, b)
		}
		if a, b := g.Update(bundle, 0.3), wantG.Update(bundle, 0.3); a != b {
			t.Fatalf("step %d: bundle estimator update loss %v, fresh %v", step, a, b)
		}
	}
}

// TestBundleEstimatorPoolsKeepShape: a released bundle estimator is never
// handed to a session over another feature count.
func TestBundleEstimatorPoolsKeepShape(t *testing.T) {
	for range 20 {
		NewBundleEstimator(4, 1, 1).release()
		if g := NewBundleEstimator(7, 1, 2); g.emb.NumIDs != 7 {
			t.Fatalf("a 7-feature draw came with %d features", g.emb.NumIDs)
		}
	}
}

// TestImperfectBatchRecyclesAcrossWorkers plays 16 imperfect sessions over
// two catalogs of different feature counts through Batch at 4 workers,
// twice, and once at 1 worker: the sessions trade pooled estimators across
// goroutines, and all three runs must agree bit for bit. CI runs it under
// the race detector.
func TestImperfectBatchRecyclesAcrossWorkers(t *testing.T) {
	cats := []*Catalog{testCatalog(t, 6, 71), testCatalog(t, 8, 72)}
	run := func(workers int) []*ImperfectResult {
		res, err := Batch(context.Background(), 16, workers, func(ctx context.Context, i int) (*ImperfectResult, error) {
			cat := cats[i%2]
			cfg, params := imperfectFor(cat, rng.DeriveSeed(5, uint64(i)))
			params.ExplorationRounds = 20
			return NewSession(cat, cfg).RunImperfect(ctx, params)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for k := 0; k < 2; k++ {
		if got := run(4); !reflect.DeepEqual(got, serial) {
			t.Fatalf("run %d at 4 workers differs from the 1-worker run", k+1)
		}
	}
}

// TestRunImperfectWithLeavesTheCallersSeller: a seller handed to
// RunImperfectWith stays the caller's. Its estimator is not released, so
// the sessions that follow cannot draw it, and the caller can still
// snapshot it, unchanged by them.
func TestRunImperfectWithLeavesTheCallersSeller(t *testing.T) {
	cat := testCatalog(t, 6, 81)
	cfg, params := imperfectFor(cat, 81)
	seller := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed: cfg.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: params,
	})
	defer seller.Release()
	gains := GainFunc(func(features []int) float64 {
		id, _ := cat.FindBundle(features)
		return cat.Gain(id)
	})
	if _, err := NewSession(cat, cfg).RunImperfectWith(context.Background(), params, seller, gains); err != nil {
		t.Fatal(err)
	}
	before, err := seller.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		c, p := imperfectFor(cat, seed)
		if _, err := RunImperfect(cat, c, p); err != nil {
			t.Fatal(err)
		}
	}
	after, err := seller.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.G, after.G) {
		t.Fatal("later sessions changed the caller's seller estimator")
	}
}
