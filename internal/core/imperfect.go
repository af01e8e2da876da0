package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ImperfectParams are the mutually known knobs of bargaining under
// imperfect performance information (§3.5): neither party knows any
// bundle's ΔG in advance; both learn estimators online from the VFL courses
// the bargaining itself runs. They are the single source of truth for the
// regime's defaults — every entry point (in-process, batch, wire) routes
// through WithDefaults.
type ImperfectParams struct {
	// ExplorationRounds is N of Case VII: within the first N rounds the
	// bargaining never terminates, quotes are sampled for coverage, and the
	// estimators train (§4.4 uses N = 100). <= 0 means 100.
	ExplorationRounds int

	// PricePool is the size of the candidate quote set the task party
	// generates up-front, all conforming to Eq. 5 (§3.5.3). It is private
	// to the task party and never crosses the wire. <= 0 means 200.
	PricePool int

	// ReplaySteps is the number of experience-replay gradient steps each
	// estimator takes per round on past (offer, realized ΔG) samples, on
	// top of the fresh-sample update. Bargaining yields one sample per
	// round, so replay is what lets the estimators converge within the
	// paper's ~100-round exploration budget. <= 0 means 4; negative
	// semantics are not used.
	ReplaySteps int
}

// WithDefaults resolves the zero-value knobs to the paper's defaults.
func (p ImperfectParams) WithDefaults() ImperfectParams {
	if p.ExplorationRounds <= 0 {
		p.ExplorationRounds = 100
	}
	if p.PricePool <= 0 {
		p.PricePool = 200
	}
	if p.ReplaySteps <= 0 {
		p.ReplaySteps = 4
	}
	return p
}

// ImperfectResult extends Result with the estimator learning curves of
// Figure 4.
type ImperfectResult struct {
	Result
	// TaskMSE[t] and DataMSE[t] are the pre-update squared errors of f and
	// g at round t+1, in normalized gain units.
	TaskMSE []float64
	DataMSE []float64
}

// MSEReporter is implemented by sellers that expose their bundle
// estimator's per-round pre-update MSE — the data-party series of Figure 4.
// Session.RunImperfectWith fills ImperfectResult.DataMSE from it; both the
// in-process EstimatorSeller and the wire client's remote seller (which
// collects the server's settlement acknowledgements) implement it.
type MSEReporter interface {
	DataMSE() []float64
}

// Imperfect seed convention: both parties derive their private random
// streams from the one session seed, so the networked game — where each
// endpoint owns only its own half — replays bit-identically to the
// in-process one. From src = rng.New(Seed):
//
//	task party (buyer policy): f estimator seed  src.Split(1)
//	                           candidate pool    src.Split(3)
//	                           exploration quotes src.Split(4)
//	                           experience replay src.Split(5)
//	data party (seller):       g estimator seed  src.Split(2)
//	                           exploration bundles src.Split(6)
//	                           experience replay src.Split(7)
//
// Each side consumes only its own splits; the interleaving of draws across
// the wire therefore cannot change the streams.

// RunImperfect plays the estimation-based bargaining of §3.5 over the
// session's catalog: the same unified quote → offer → realize → settle loop
// as RunPerfect, with the estimator-driven buyer policy playing against an
// in-process EstimatorSeller. The context is checked between rounds;
// observers stream every realized round (including exploration rounds) and
// the final outcome.
func (sess *Session) RunImperfect(ctx context.Context, params ImperfectParams) (*ImperfectResult, error) {
	cat := sess.cat
	if cat == nil || cat.Len() == 0 {
		return nil, fmt.Errorf("core: empty catalog")
	}
	pol, err := sess.prepareImperfect(params)
	if err != nil {
		return nil, err
	}
	seller := NewEstimatorSeller(cat, EstimatorSellerConfig{
		Seed:    pol.cfg.Seed,
		Target:  pol.cfg.TargetGain,
		EpsData: pol.cfg.EpsData,
		Params:  pol.params,
	})
	defer seller.Release()
	realize := func(o SellerOffer) float64 { return cat.Gain(o.BundleID) }
	return sess.runImperfect(ctx, pol, seller, realize)
}

// RunImperfectWith plays the task party's side of the §3.5 estimation-based
// game against an arbitrary Seller — typically a network peer speaking the
// wire protocol — realizing each offered bundle's gain through gains. It is
// the exact same game loop as RunImperfect (same estimator seeding and
// stream derivation from the session seed, same termination precedence), so
// against a seller that mirrors EstimatorSeller — the wire server does —
// the ImperfectResult is bit-identical to the in-process run for the same
// seed and catalog.
//
// When the seller implements MSEReporter (the wire client's seller does,
// from the server's settlement acknowledgements), its series fills
// ImperfectResult.DataMSE; otherwise DataMSE stays nil.
func (sess *Session) RunImperfectWith(ctx context.Context, params ImperfectParams, seller Seller, gains GainProvider) (*ImperfectResult, error) {
	if gains == nil {
		return nil, fmt.Errorf("core: RunImperfectWith needs a gain provider")
	}
	pol, err := sess.prepareImperfect(params)
	if err != nil {
		return nil, err
	}
	realize := func(o SellerOffer) float64 { return gains.Gain(o.Features) }
	return sess.runImperfect(ctx, pol, seller, realize)
}

// runImperfect plays the prepared policy against the seller through the
// unified loop and assembles the learning curves. It releases the policy's
// f on every exit; the seller stays its caller's.
func (sess *Session) runImperfect(ctx context.Context, pol *imperfectPolicy, seller Seller,
	realize func(SellerOffer) float64) (*ImperfectResult, error) {
	defer pol.f.release()
	res := &ImperfectResult{}
	res.TargetBundleID = -1 // filled from the seller's offer hints
	if err := sess.play(ctx, pol.cfg, pol, seller, realize, &res.Result); err != nil {
		return nil, err
	}
	res.TaskMSE = pol.taskMSE
	if r, ok := seller.(MSEReporter); ok {
		res.DataMSE = r.DataMSE()
	}
	return res, nil
}

// imperfectPolicy is the estimation-based pricing of §3.5.3: an online
// price estimator f trained on realized rounds (with experience replay), a
// pre-sampled Eq. 5 candidate pool, random pool coverage during the Case
// VII exploration phase, and predicted-net-profit quote selection after it.
type imperfectPolicy struct {
	cfg    SessionConfig   // defaulted and validated
	params ImperfectParams // defaulted

	f          *PriceEstimator
	pool       []QuotedPrice
	open       QuotedPrice
	exploreSrc *rng.Source
	replaySrc  *rng.Source

	history []RoundRecord
	taskMSE []float64
}

// prepareImperfect defaults and validates the configuration and derives the
// task party's half of the imperfect seed convention (splits 1, 3, 4, 5 —
// split 2 belongs to the seller's bundle estimator).
func (s *Session) prepareImperfect(params ImperfectParams) (*imperfectPolicy, error) {
	cfg := s.cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := params.WithDefaults()
	src := rng.New(cfg.Seed)
	gainScale := gainScaleFor(cfg.TargetGain)
	maxRate := math.Min(cfg.U, (cfg.Budget-cfg.InitBase)/cfg.TargetGain)
	f := NewPriceEstimator(maxRate, cfg.Budget, gainScale, src.Split(1).Uint64())
	pool := samplePricePool(cfg, p.PricePool, src.Split(3))
	return &imperfectPolicy{
		cfg: cfg, params: p, f: f, pool: pool,
		open:       EquilibriumPrice(cfg.InitRate, cfg.InitBase, cfg.TargetGain),
		exploreSrc: src.Split(4),
		replaySrc:  src.Split(5),
	}, nil
}

func (p *imperfectPolicy) opening() QuotedPrice { return p.open }

func (p *imperfectPolicy) exploring(T int) bool { return T <= p.params.ExplorationRounds }

// barrenPatience is zero under imperfect information: a post-exploration
// round with nothing affordable is the paper's Case I and ends the game
// immediately (the seller never goes barren while exploring).
func (p *imperfectPolicy) barrenPatience() int { return 0 }

// observe trains f on the realized round and replays past rounds so one
// sample per round is enough to converge within the exploration budget.
func (p *imperfectPolicy) observe(rec RoundRecord) {
	p.taskMSE = append(p.taskMSE, p.f.Update(rec.Price, rec.Gain))
	p.history = append(p.history, rec)
	for k := 0; k < p.params.ReplaySteps && len(p.history) > 1; k++ {
		past := p.history[p.replaySrc.IntN(len(p.history))]
		p.f.Update(past.Price, past.Gain)
	}
}

func (p *imperfectPolicy) next(cur QuotedPrice, nextRound int) (QuotedPrice, bool) {
	if len(p.pool) == 0 {
		// No rational escalation exists above the opening quote; the game
		// stalls and fails by round exhaustion.
		return cur, false
	}
	return nextImperfectQuote(p.cfg, p.f, p.pool, nextRound <= p.params.ExplorationRounds, p.exploreSrc), true
}

// nextImperfectQuote picks the task party's next offer: a random pool
// member during exploration (coverage for f), and afterwards the §3.5.3
// rule — prefer quotes whose predicted gain reaches their own knee within
// εt, maximizing predicted net profit; fall back to the best predicted net
// profit overall. The post-exploration scan predicts the whole pool in one
// batched forward (bit-identical to per-quote Predict calls: the weights
// are fixed within the scan and the batched kernels keep the per-sample
// summation order).
func nextImperfectQuote(s SessionConfig, f *PriceEstimator, pool []QuotedPrice,
	exploring bool, src *rng.Source) QuotedPrice {
	if exploring {
		return pool[src.IntN(len(pool))]
	}
	preds := f.PredictPool(pool)
	bestFiltered, bestAny := -1, -1
	var bestFilteredProfit, bestAnyProfit float64
	for i, q := range pool {
		pred := preds[i]
		profit := float64(s.U*pred) - q.Payment(pred)
		if bestAny < 0 || profit > bestAnyProfit {
			bestAny, bestAnyProfit = i, profit
		}
		if pred >= q.TargetGain()-s.EpsTask {
			// Predicted to reach its knee: the payment saturates at Ph and
			// any predicted overshoot is estimation noise that Lemma 3.1
			// says cannot be monetized, so evaluate the profit at the knee —
			// u·ΔG* − Ph — making this an argmin over ceilings.
			atKnee := float64(s.U*q.TargetGain()) - q.High
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
