package core

import (
	"math"

	"repro/internal/rng"
)

// EstimatorSellerConfig parameterizes the data party's side of one
// imperfect-information session. All fields are mutually known protocol
// parameters (§3.5): the wire handshake carries them verbatim so a remote
// data party constructs the exact seller an in-process run would.
type EstimatorSellerConfig struct {
	// Seed is the session seed; the seller derives its half of the
	// imperfect seed convention from it (splits 2, 6, 7).
	Seed uint64
	// Target is the task party's target gain ΔG*: it scales the bundle
	// estimator's output and anchors the target-bundle hint.
	Target float64
	// EpsData is εd of Case II, absorbing estimation error in the knee
	// comparison.
	EpsData float64
	// Params are the regime knobs; PricePool is task-party-private and
	// ignored here.
	Params ImperfectParams
}

// EstimatorSeller is the data party of the §3.5 estimation-based game as a
// Seller: it answers quotes from the predictions of an online-learned
// bundle estimator g, serves random coverage bundles through the Case VII
// exploration phase, and trains g (fresh sample plus experience replay) on
// the realized gain of every settled round. Session.RunImperfect plays
// against it in-process; the wire server constructs one per imperfect
// session so a networked game replays bit-identically.
//
// Like every Seller it is single-goroutine, calls arriving in game order.
type EstimatorSeller struct {
	cat    *Catalog
	cfg    EstimatorSellerConfig
	params ImperfectParams

	g          *BundleEstimator
	exploreSrc *rng.Source
	replaySrc  *rng.Source

	history      []bundleSample
	mse          []float64
	targetBundle int

	// featureSets indexes every bundle's feature ids by bundle id — the
	// fixed input of the whole-inventory batched scan in caseTwoChoice.
	featureSets [][]int
	// affordable is the per-round filtering scratch, reused across Offers.
	affordable []int

	// settledRound and lastOffer track the seller's resume position: the
	// last round it settled and the offer it made for it (see Snapshot).
	settledRound int
	lastOffer    SellerOffer
}

// bundleSample is one realized (bundle, gain) pair of the replay buffer.
type bundleSample struct {
	features []int
	gain     float64
}

// NewEstimatorSeller builds the data party's estimation-based seller over
// its catalog. The bundle estimator's seed and the seller's exploration and
// replay streams derive from cfg.Seed per the imperfect seed convention.
func NewEstimatorSeller(cat *Catalog, cfg EstimatorSellerConfig) *EstimatorSeller {
	src := rng.New(cfg.Seed)
	gSeed := src.Split(2).Uint64()
	numFeatures := 0
	featureSets := make([][]int, len(cat.Bundles))
	for i, b := range cat.Bundles {
		featureSets[i] = b.Features
		for _, ft := range b.Features {
			if ft+1 > numFeatures {
				numFeatures = ft + 1
			}
		}
	}
	return &EstimatorSeller{
		featureSets:  featureSets,
		cat:          cat,
		cfg:          cfg,
		params:       cfg.Params.WithDefaults(),
		g:            NewBundleEstimator(numFeatures, gainScaleFor(cfg.Target), gSeed),
		exploreSrc:   src.Split(6),
		replaySrc:    src.Split(7),
		targetBundle: cat.TargetBundle(cfg.Target),
	}
}

// Release hands the seller's estimator back for reuse once its session and
// last Snapshot are over; a later use panics on the nil estimator instead
// of sharing weights. A second Release does nothing.
func (s *EstimatorSeller) Release() {
	if s.g != nil {
		s.g.release()
		s.g = nil
	}
}

// Offer implements Seller: estimation-based bundle choice. During the Case
// VII exploration phase it keeps the game (and the estimator training)
// alive with random coverage bundles; afterwards it applies the Case II
// selection and commitment rules over g's predictions.
func (s *EstimatorSeller) Offer(round int, q QuotedPrice) (SellerOffer, error) {
	exploring := round <= s.params.ExplorationRounds
	s.affordable = s.cat.AffordableInto(s.affordable, q)
	affordable := s.affordable
	accept := false
	var bundleID int
	switch {
	case len(affordable) == 0 && exploring:
		// Case VII relaxation of Case I: nothing satisfies the quote, but
		// exploration never walks away — sample the whole catalog.
		bundleID = s.exploreSrc.IntN(s.cat.Len())
	case len(affordable) == 0:
		return SellerOffer{BundleID: -1, Fail: true, TargetBundleID: s.targetBundle,
			Reason: "no bundle satisfies the quoted price (Case I)"}, nil
	case exploring:
		// Coverage over affordable bundles while training g.
		bundleID = affordable[s.exploreSrc.IntN(len(affordable))]
	default:
		bundleID, accept = s.caseTwoChoice(q, affordable)
	}
	offer := SellerOffer{
		BundleID: bundleID, Features: s.cat.Bundles[bundleID].Features,
		Accept: accept, TargetBundleID: s.targetBundle,
	}
	s.lastOffer = offer
	return offer, nil
}

// caseTwoChoice applies the post-exploration Case II policy: pick the
// affordable bundle whose predicted gain sits closest below the payment
// knee (falling back to the gentlest overshoot), and commit when the
// prediction says the ceiling is already earned. The whole inventory is
// predicted in ONE batched forward pass per round; the affordable-set
// selection and the final accept check index into that scan instead of
// re-predicting (the weights are fixed within a round, so the indexed
// predictions are bit-identical to fresh per-bundle Predict calls).
func (s *EstimatorSeller) caseTwoChoice(q QuotedPrice, affordable []int) (bundleID int, accept bool) {
	knee := q.TargetGain()
	preds := s.g.PredictAll(s.featureSets)
	// Inventory-wide prediction range: Case II(2)/(3) ask whether the knee
	// lies beyond anything the data party could ever deliver, with the εd
	// margin absorbing estimation error.
	minAll, maxAll := math.Inf(1), math.Inf(-1)
	for _, pred := range preds {
		minAll = math.Min(minAll, pred)
		maxAll = math.Max(maxAll, pred)
	}
	// Affordable-set selection: predicted gain closest to the knee from
	// below, falling back to the gentlest overshoot; track the best and
	// worst predicted bundles for the Case II offers.
	bestBelow, bestAbove := -1, -1
	var bestBelowPred, bestAbovePred float64
	maxID, minID := affordable[0], affordable[0]
	maxPred, minPred := math.Inf(-1), math.Inf(1)
	for _, id := range affordable {
		pred := preds[id]
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
		// Case II(2): the knee is beyond the whole inventory — sell the
		// best deliverable bundle.
		return maxID, true
	case minAll-knee > s.cfg.EpsData:
		// Case II(3): even the weakest bundle overshoots the knee — the
		// gentlest overshoot already earns the full ceiling.
		return minID, true
	default:
		if bestBelow >= 0 {
			bundleID = bestBelow
		} else {
			bundleID = bestAbove
		}
		// Case II(1): predicted knee match.
		accept = knee-preds[bundleID] <= s.cfg.EpsData
		return bundleID, accept
	}
}

// Settle implements Seller: the realized gain is the seller's one training
// sample for the round — fresh update plus experience replay over past
// settlements.
func (s *EstimatorSeller) Settle(round int, rec RoundRecord, d SettleDecision) error {
	features := s.cat.Bundles[rec.BundleID].Features
	s.mse = append(s.mse, s.g.Update(features, rec.Gain))
	s.history = append(s.history, bundleSample{features: features, gain: rec.Gain})
	for k := 0; k < s.params.ReplaySteps && len(s.history) > 1; k++ {
		past := s.history[s.replaySrc.IntN(len(s.history))]
		s.g.Update(past.features, past.gain)
	}
	s.settledRound = round
	return nil
}

// Abandon implements Seller; the walk-away needs no reaction in-process.
func (s *EstimatorSeller) Abandon(round int) error { return nil }

// DataMSE implements MSEReporter: the pre-update squared error of g at each
// settled round, in normalized gain units (the Figure 4 data-party series).
func (s *EstimatorSeller) DataMSE() []float64 { return s.mse }

// LastMSE returns the most recent settlement's pre-update error (what the
// wire server acknowledges a settlement with), or 0 before any settlement.
func (s *EstimatorSeller) LastMSE() float64 {
	if len(s.mse) == 0 {
		return 0
	}
	return s.mse[len(s.mse)-1]
}
