package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPriceEstimatorLearnsPriceGainMap(t *testing.T) {
	// Ground truth: gain rises with the ceiling, saturating — a shape like
	// the real market's price→gain response.
	truth := func(q QuotedPrice) float64 { return 0.2 * (1 - math.Exp(-q.High/3)) }
	f := NewPriceEstimator(20, 8, 0.1, 7)
	src := rng.New(9)
	for i := 0; i < 3000; i++ {
		q := QuotedPrice{Rate: src.Uniform(5, 15), Base: src.Uniform(0.5, 2)}
		q.High = q.Base + src.Uniform(0.5, 5)
		f.Update(q, truth(q))
	}
	var quotes []QuotedPrice
	var gains []float64
	for i := 0; i < 50; i++ {
		q := QuotedPrice{Rate: src.Uniform(5, 15), Base: src.Uniform(0.5, 2)}
		q.High = q.Base + src.Uniform(0.5, 5)
		quotes = append(quotes, q)
		gains = append(gains, truth(q))
	}
	if mse := f.EvalMSE(quotes, gains); mse > 0.01 {
		t.Fatalf("price estimator eval MSE = %v", mse)
	}
}

func TestPriceEstimatorPanicsOnBadScales(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPriceEstimator(0, 1, 1, 1)
}

func TestBundleEstimatorLearnsGains(t *testing.T) {
	const n = 8
	gains := NewSyntheticGains(n, 0.2, 0, rng.New(3))
	g := NewBundleEstimator(n, 0.1, 5)
	src := rng.New(11)
	var trainBundles [][]int
	for i := 0; i < 40; i++ {
		k := 1 + src.IntN(n)
		trainBundles = append(trainBundles, src.Sample(n, k))
	}
	for epoch := 0; epoch < 150; epoch++ {
		for _, b := range trainBundles {
			g.Update(b, gains.Gain(b))
		}
	}
	var evalGains []float64
	for _, b := range trainBundles {
		evalGains = append(evalGains, gains.Gain(b))
	}
	if mse := g.EvalMSE(trainBundles, evalGains); mse > 0.02 {
		t.Fatalf("bundle estimator MSE = %v", mse)
	}
}

func TestBundleEstimatorLossDecreases(t *testing.T) {
	g := NewBundleEstimator(5, 0.1, 9)
	b := []int{0, 2, 4}
	first := g.Update(b, 0.15)
	var last float64
	for i := 0; i < 300; i++ {
		last = g.Update(b, 0.15)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if math.Abs(g.Predict(b)-0.15) > 0.02 {
		t.Fatalf("prediction %v far from target 0.15", g.Predict(b))
	}
}

func TestBundleEstimatorPanics(t *testing.T) {
	for _, tc := range []func(){
		func() { NewBundleEstimator(0, 1, 1) },
		func() { NewBundleEstimator(3, 0, 1) },
		func() { NewBundleEstimator(3, 1, 1).EvalMSE(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc()
		}()
	}
}

func TestEstimatorsDeterministic(t *testing.T) {
	mk := func() float64 {
		g := NewBundleEstimator(4, 0.1, 21)
		for i := 0; i < 50; i++ {
			g.Update([]int{0, 1}, 0.1)
			g.Update([]int{2}, 0.05)
		}
		return g.Predict([]int{0, 1, 2})
	}
	if mk() != mk() {
		t.Fatal("bundle estimator not deterministic")
	}
}

func TestGainScaleFor(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.17, 1},
		{0.005, 0.01},
		{0.03, 0.1},
		{1, 1},
		{0, 1},
		{-2, 1},
	}
	for _, c := range cases {
		if got := gainScaleFor(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("gainScaleFor(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Per-sample predictions and evaluation error no served path computes, kept
// as the references the tests above check the batched scans and training
// against.

// Predict returns the estimated ΔG of offering quote q.
func (e *PriceEstimator) Predict(q QuotedPrice) float64 {
	return e.reg.Predict(e.input(q)) * e.gainScale
}

// Predict returns the estimated ΔG of a bundle.
func (e *BundleEstimator) Predict(features []int) float64 {
	pooled := e.emb.ForwardMean(features)
	return e.mlp.Forward(pooled)[0] * e.gainScale
}

// EvalMSE returns the mean squared normalized-gain error of the estimator
// over a labelled evaluation set; used by tests to check convergence.
func (e *BundleEstimator) EvalMSE(bundles [][]int, gains []float64) float64 {
	if len(bundles) != len(gains) || len(bundles) == 0 {
		panic("core: EvalMSE needs matched non-empty sets")
	}
	s := 0.0
	for i, b := range bundles {
		d := (e.Predict(b) - gains[i]) / e.gainScale
		s += d * d
	}
	return s / float64(len(bundles))
}

// EvalMSE returns the mean squared normalized-gain error of f over a
// labelled evaluation set.
func (e *PriceEstimator) EvalMSE(quotes []QuotedPrice, gains []float64) float64 {
	if len(quotes) != len(gains) || len(quotes) == 0 {
		panic("core: EvalMSE needs matched non-empty sets")
	}
	s := 0.0
	for i, q := range quotes {
		d := (e.Predict(q) - gains[i]) / e.gainScale
		s += d * d
	}
	return s / float64(len(quotes))
}
