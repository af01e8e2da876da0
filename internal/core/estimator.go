package core

import (
	"math"
	"sync"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// estimatorHidden is the architecture of both performance-gain estimators:
// a 3-layer MLP with embedding dimensions 64, 32, 16 (§4.4).
var estimatorHidden = []int{64, 32, 16}

// Estimator lifetime: NewPriceEstimator and NewBundleEstimator re-seed an
// idle estimator of the same shape in place when one is pooled — weights
// drawn as construction draws them, gradients and Adam state zeroed — so a
// recycled estimator cannot be told from a fresh one. Whoever drew one
// releases it when its session ends, and nothing may keep its memory after:
// runImperfect and ResumeImperfectWith release the policy's f on every exit,
// errors included; EstimatorSeller.Release returns g, called by RunImperfect
// for the seller it builds and by the wire server once a session's serve
// loop returns, while a seller passed to RunImperfectWith stays its
// caller's. State, Snapshot and checkpoints copy, so none holds pooled
// memory. An idle process keeps nothing: sync.Pool drops idle entries at GC.
//
// Rounds lifetime: a session's rounds grow in a pooled scratch
// (roundScratch), a resume's prefix copied in first, and every exit of
// playFrom, errors and cancellation included, hands the result an
// exact-size copy (nil for no rounds) that observers see too. Nothing may
// hold the scratch: snapshot copies res.Rounds, and a checkpoint sharing a
// trace prefix must slice the copies, never the scratch.
var priceEstimators sync.Pool

// bundleEstimators holds one *sync.Pool per feature count, so a bundle
// estimator of the wrong shape never comes out.
var bundleEstimators sync.Map

func bundlePool(numFeatures int) *sync.Pool {
	if p, ok := bundleEstimators.Load(numFeatures); ok {
		return p.(*sync.Pool)
	}
	p, _ := bundleEstimators.LoadOrStore(numFeatures, new(sync.Pool))
	return p.(*sync.Pool)
}

// PriceEstimator is the task party's estimation function f(p, P0, Ph; θ_f)
// → ΔG of Eq. 9. It learns, from the realized gains of past rounds, how
// much performance gain a quoted price buys. Inputs are normalized by the
// rate ceiling and budget; the output is trained in units of gainScale so
// Credit's tiny gains optimize as well as Titanic's large ones.
type PriceEstimator struct {
	reg       *nn.Regressor
	rateScale float64
	payScale  float64
	gainScale float64

	// Scan buffers, reused across Predict and PredictPool calls.
	in      tensor.Vector // per-sample input scratch
	poolX   *tensor.Matrix
	scratch nn.PredictScratch
	preds   []float64
}

// NewPriceEstimator builds an untrained f. rateScale is the largest payment
// rate expected (u or the Eq. 5-implied cap), payScale the budget B, and
// gainScale a representative gain magnitude (e.g. the target gain).
func NewPriceEstimator(rateScale, payScale, gainScale float64, seed uint64) *PriceEstimator {
	if rateScale <= 0 || payScale <= 0 || gainScale <= 0 {
		panic("core: PriceEstimator scales must be positive")
	}
	e, _ := priceEstimators.Get().(*PriceEstimator)
	if e == nil {
		e = &PriceEstimator{reg: nn.NewRegressor(3, estimatorHidden, 1e-3, seed), in: make(tensor.Vector, 3)}
	} else {
		e.reg.Reseed(seed)
	}
	e.rateScale, e.payScale, e.gainScale = rateScale, payScale, gainScale
	return e
}

func (e *PriceEstimator) release() { priceEstimators.Put(e) }

// input fills the estimator's input scratch with the normalized quote. The
// returned vector is reused by the next input call; Predict and Update
// consume it before then.
func (e *PriceEstimator) input(q QuotedPrice) tensor.Vector {
	e.in[0] = q.Rate / e.rateScale
	e.in[1] = q.Base / e.payScale
	e.in[2] = q.High / e.payScale
	return e.in
}

// PredictPool predicts the estimated ΔG of every quote in pool through one
// batched forward pass — one matrix product per layer instead of a per-quote
// MLP walk. The returned slice is reused by the next PredictPool call;
// element i is bit-identical to Predict(pool[i]), because the batched kernel
// keeps the per-sample summation order and the weights are fixed within a
// scan.
func (e *PriceEstimator) PredictPool(pool []QuotedPrice) []float64 {
	e.poolX = tensor.EnsureMatrix(e.poolX, len(pool), 3)
	for i, q := range pool {
		copy(e.poolX.Row(i), e.input(q))
	}
	e.preds = e.reg.PredictBatchInto(&e.scratch, e.poolX, e.preds)
	for i := range e.preds {
		e.preds[i] *= e.gainScale
	}
	return e.preds
}

// Update trains on one (quote, realized gain) pair and returns the
// pre-update squared error in normalized gain units — the task-party MSE
// series of Figure 4.
func (e *PriceEstimator) Update(q QuotedPrice, gain float64) float64 {
	return e.reg.Update(e.input(q), gain/e.gainScale)
}

// BundleEstimator is the data party's estimation function g(F; θ_g) → ΔG of
// Eq. 8: each data-party feature gets a learned embedding, a bundle is the
// mean of its features' embeddings (the paper's nn.Embedding + averaging),
// and a 3-layer MLP maps the pooled embedding to a gain estimate.
type BundleEstimator struct {
	emb       *nn.Embedding
	mlp       *nn.MLP
	opt       *nn.Adam
	gainScale float64
	// params is the combined parameter list in the canonical
	// mlp-then-embedding order (the checkpoint and Adam-moment order),
	// cached at construction instead of re-appended per gradient step.
	params []nn.Param

	// Scan buffers, reused across PredictAll calls.
	pooledB *tensor.Matrix
	scratch nn.PredictScratch
	preds   []float64
	gbuf    tensor.Vector // 1-element output-gradient scratch for Update
}

// BundleEmbeddingDim is the per-feature embedding width of g.
const BundleEmbeddingDim = 16

// NewBundleEstimator builds an untrained g over numFeatures data-party
// features.
func NewBundleEstimator(numFeatures int, gainScale float64, seed uint64) *BundleEstimator {
	if numFeatures <= 0 {
		panic("core: BundleEstimator needs at least one feature")
	}
	if gainScale <= 0 {
		panic("core: BundleEstimator gainScale must be positive")
	}
	src := rng.New(seed)
	embSrc, mlpSrc := src.Split(1), src.Split(2)
	e, _ := bundlePool(numFeatures).Get().(*BundleEstimator)
	if e == nil {
		sizes := append(append([]int{BundleEmbeddingDim}, estimatorHidden...), 1)
		e = &BundleEstimator{
			emb:  nn.NewEmbedding(numFeatures, BundleEmbeddingDim, embSrc),
			mlp:  nn.NewMLP(sizes, nn.ReLU, nn.Identity, mlpSrc),
			gbuf: make(tensor.Vector, 1),
		}
		e.params = append(e.mlp.Params(), e.emb.Params()...)
		e.opt = nn.NewAdam(e.params, 1e-3)
	} else {
		e.emb.Reseed(embSrc)
		e.mlp.Reseed(mlpSrc)
		e.opt.Reset()
	}
	e.gainScale = gainScale
	return e
}

func (e *BundleEstimator) release() { bundlePool(e.emb.NumIDs).Put(e) }

// PredictAll predicts the estimated ΔG of every feature bundle through one
// batched forward pass — mean-pool every bundle's embeddings into one
// matrix, then one matrix product per MLP layer. The returned slice is
// reused by the next PredictAll call; element i is bit-identical to
// Predict(bundles[i]) for fixed weights, and the training caches are
// untouched.
func (e *BundleEstimator) PredictAll(bundles [][]int) []float64 {
	e.pooledB = e.emb.ForwardMeanBatchInto(e.pooledB, bundles)
	z := e.mlp.PredictBatchInto(&e.scratch, e.pooledB)
	if cap(e.preds) < len(bundles) {
		e.preds = make([]float64, len(bundles))
	}
	e.preds = e.preds[:len(bundles)]
	for i := range e.preds {
		e.preds[i] = z.At(i, 0) * e.gainScale
	}
	return e.preds
}

// Update trains on one (bundle, realized gain) pair and returns the
// pre-update squared error in normalized gain units — the data-party MSE
// series of Figure 4.
func (e *BundleEstimator) Update(features []int, gain float64) float64 {
	pooled := e.emb.ForwardMean(features)
	pred := e.mlp.Forward(pooled)
	loss, g := nn.MSEGrad(pred[0], gain/e.gainScale)
	e.gbuf[0] = g
	gradIn := e.mlp.Backward(e.gbuf)
	e.emb.BackwardMean(gradIn)
	e.opt.Step(5)
	return loss
}

// gainScaleFor picks a numerically sensible output scale from a target
// gain: the nearest power of ten at or above it, so normalized targets land
// in (0.1, 1].
func gainScaleFor(targetGain float64) float64 {
	if targetGain <= 0 {
		return 1
	}
	return math.Pow(10, math.Ceil(math.Log10(targetGain)))
}
