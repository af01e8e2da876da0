package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// TaskStrategy selects how the task party quotes prices.
type TaskStrategy int

// Task-party strategies compared in §4.2.
const (
	// TaskStrategic is the paper's strategy: every quote satisfies the
	// equilibrium constraint (Ph-P0)/p = ΔG* (Eq. 5), escalating by
	// sampling candidate prices and choosing the cheapest ceiling.
	TaskStrategic TaskStrategy = iota
	// TaskIncreasePrice is the non-strategic baseline: the quote components
	// are increased arbitrarily each round with no Eq. 5 constraint.
	TaskIncreasePrice
	// TaskBisection is the paper's future-work "efficient offer generating"
	// strategy: instead of walking the Eq. 5 candidate pool linearly, each
	// failed probe jumps halfway into the remaining (more expensive) pool,
	// reaching an accepted quote in O(log |pool|) rounds at the price of
	// overshooting the equilibrium ceiling. The ablation benchmark
	// quantifies the rounds-vs-overpayment trade.
	TaskBisection
)

// String implements fmt.Stringer.
func (s TaskStrategy) String() string {
	switch s {
	case TaskStrategic:
		return "strategic"
	case TaskIncreasePrice:
		return "increase-price"
	case TaskBisection:
		return "bisection"
	default:
		return fmt.Sprintf("TaskStrategy(%d)", int(s))
	}
}

// DataStrategy selects how the data party answers quotes.
type DataStrategy int

// Data-party strategies compared in §4.2.
const (
	// DataStrategic offers the affordable bundle whose gain is closest to
	// the payment knee (Ph-P0)/p without exceeding it.
	DataStrategic DataStrategy = iota
	// DataRandomBundle offers a uniformly random affordable bundle.
	DataRandomBundle
)

// String implements fmt.Stringer.
func (s DataStrategy) String() string {
	switch s {
	case DataStrategic:
		return "strategic"
	case DataRandomBundle:
		return "random-bundle"
	default:
		return fmt.Sprintf("DataStrategy(%d)", int(s))
	}
}

// Outcome is how a bargaining session ended.
type Outcome int

// Session outcomes.
const (
	// Success: the parties agreed on a bundle–payment matching.
	Success Outcome = iota
	// FailData: Case 1 — no bundle satisfies the quoted price.
	FailData
	// FailTask: Case 4 — the realized gain leaves negative net profit.
	FailTask
	// FailMaxRounds: the round budget was exhausted without agreement.
	FailMaxRounds
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case FailData:
		return "fail-data-party"
	case FailTask:
		return "fail-task-party"
	case FailMaxRounds:
		return "fail-max-rounds"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// SessionConfig parameterizes one bargaining game.
type SessionConfig struct {
	U          float64 // the task party's utility rate u (u > p required)
	Budget     float64 // B, the cap on Ph
	TargetGain float64 // ΔG*, the task party's target
	InitRate   float64 // p0 of the base quote
	InitBase   float64 // P0^0 of the base quote

	EpsTask float64 // εt of Case 5
	EpsData float64 // εd of Case 2

	MaxRounds    int // hard cap; exceeding it fails the transaction (§4.1.2 uses 500)
	PriceSamples int // size of the candidate quote set of Algorithm 1 line 16; <= 0 means 300
	// RateCapFactor bounds candidate payment rates at RateCapFactor·p0 (and
	// always at u and the Eq. 5 budget implication): economically the task
	// party weakly prefers low rates, so it never quotes far above the
	// reserve-price range. <= 0 means 3.
	RateCapFactor float64

	TaskStrategy TaskStrategy
	DataStrategy DataStrategy

	// Bargaining costs (§3.4.4). Zero values disable them.
	TaskCost CostModel
	DataCost CostModel
	EpsTaskC float64 // εt,c of Eq. 7
	EpsDataC float64 // εd,c of Eq. 6

	Seed uint64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 500
	}
	if c.PriceSamples <= 0 {
		c.PriceSamples = 300
	}
	if c.RateCapFactor <= 0 {
		c.RateCapFactor = 3
	}
	return c
}

// rateCap returns the hard ceiling on candidate payment rates.
func (c SessionConfig) rateCap() float64 {
	return math.Min(c.U, c.RateCapFactor*c.InitRate)
}

// Validate rejects configurations that violate the market's assumptions.
func (c SessionConfig) Validate() error {
	if c.U <= c.InitRate {
		return fmt.Errorf("core: utility rate u=%v must exceed initial payment rate p0=%v", c.U, c.InitRate)
	}
	if c.TargetGain <= 0 {
		return fmt.Errorf("core: target gain %v must be positive", c.TargetGain)
	}
	if c.InitRate <= 0 || c.InitBase < 0 {
		return fmt.Errorf("core: initial price (p0=%v, P0=%v) invalid", c.InitRate, c.InitBase)
	}
	if c.Budget < c.InitBase+float64(c.InitRate*c.TargetGain) {
		return fmt.Errorf("core: budget %v cannot fund the initial equilibrium quote %v",
			c.Budget, c.InitBase+float64(c.InitRate*c.TargetGain))
	}
	return nil
}

// RoundRecord captures one full bargaining round for the Figure 2/3 series.
type RoundRecord struct {
	Round     int // 1-based
	Price     QuotedPrice
	BundleID  int
	Gain      float64 // realized ΔG of the VFL course on the offered bundle
	Payment   float64 // Eq. 2, before bargaining cost
	NetProfit float64 // Eq. 3 realized, before bargaining cost
	TaskCost  float64 // C_t at this round
	DataCost  float64 // C_d at this round
}

// Result is the full trace and outcome of one bargaining session.
type Result struct {
	Outcome Outcome
	Rounds  []RoundRecord
	// Final is the last round's record; for Success it is the executed
	// transaction.
	Final RoundRecord
	// TargetBundleID is the catalog bundle closest to the task party's
	// target gain — the good whose reserved price the density panels of
	// Figures 2/3 compare the final quote against.
	TargetBundleID int
}

// FinalNetRevenue returns the parties' final revenues net of bargaining
// costs (task net profit, data payment), as reported in Table 3.
func (r *Result) FinalNetRevenue() (task, data float64) {
	return r.Final.NetProfit - r.Final.TaskCost, r.Final.Payment - r.Final.DataCost
}

// RunPerfect plays Algorithm 1: bargaining under perfect performance
// information over the session's catalog, returning the full trace. The
// context is checked between bargaining rounds: once it is cancelled or its
// deadline passes, the run stops and returns the context's error instead of
// a Result. Attached observers receive every realized round and the final
// outcome as they happen.
func (s *Session) RunPerfect(ctx context.Context) (*Result, error) {
	cat := s.cat
	if cat.Len() == 0 {
		return nil, fmt.Errorf("core: empty catalog")
	}
	pol, err := s.preparePerfect()
	if err != nil {
		return nil, err
	}
	seller := &catalogSeller{cat: cat, cfg: pol.cfg, src: pol.src}
	realize := func(o SellerOffer) float64 { return cat.Gain(o.BundleID) }
	res := &Result{TargetBundleID: cat.TargetBundle(pol.cfg.TargetGain)}
	if err := s.play(ctx, pol.cfg, pol, seller, realize, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunPerfectWith plays the task party's side of Algorithm 1 against an
// arbitrary Seller — typically a network peer speaking the wire protocol —
// realizing each offered bundle's gain through gains. It is the exact same
// game loop as RunPerfect (same candidate-pool derivation from the session
// seed, same termination precedence), so for sessions whose randomness is
// purely task-party-side (the default strategic strategies) the Result is
// bit-identical to an in-process run over the seller's catalog.
//
// Result.TargetBundleID is filled from the seller's offers when the seller
// provides the hint, and is -1 otherwise.
func (s *Session) RunPerfectWith(ctx context.Context, seller Seller, gains GainProvider) (*Result, error) {
	if gains == nil {
		return nil, fmt.Errorf("core: RunPerfectWith needs a gain provider")
	}
	pol, err := s.preparePerfect()
	if err != nil {
		return nil, err
	}
	realize := func(o SellerOffer) float64 { return gains.Gain(o.Features) }
	res := &Result{TargetBundleID: -1}
	if err := s.play(ctx, pol.cfg, pol, seller, realize, res); err != nil {
		return nil, err
	}
	return res, nil
}

// buyerPolicy is the task party's pricing policy — the half of the game
// that differs between the two information regimes. The unified play loop
// drives any policy against any Seller: the policy owns the opening quote,
// the escalation path, the Case VII exploration schedule, and whatever it
// learns from realized rounds; the loop owns rounds, records, observers,
// and termination precedence.
type buyerPolicy interface {
	// opening returns the round-1 quote.
	opening() QuotedPrice
	// next returns the quote for round nextRound, given the current one;
	// ok=false means no further quote exists (pool or budget exhausted).
	next(cur QuotedPrice, nextRound int) (QuotedPrice, bool)
	// exploring reports whether round T is an exploration round (Case VII:
	// termination suppressed, quotes sampled for estimator coverage).
	exploring(T int) bool
	// observe feeds a realized round back into the policy (online
	// estimator training under imperfect information; a no-op otherwise).
	observe(rec RoundRecord)
	// barrenPatience is how many consecutive Fail offers after round 1 the
	// buyer tolerates before walking away.
	barrenPatience() int
}

// perfectPolicy is the closed-form Eq. 5 pricing of Algorithm 1: a
// pre-sampled candidate pool walked in ascending-ceiling order (or the
// non-strategic escalations), no exploration, nothing to learn.
type perfectPolicy struct {
	cfg     SessionConfig
	src     *rng.Source
	pool    []QuotedPrice
	poolIdx int
	open    QuotedPrice
}

func (p *perfectPolicy) opening() QuotedPrice { return p.open }

func (p *perfectPolicy) next(cur QuotedPrice, _ int) (QuotedPrice, bool) {
	return nextQuote(p.cfg, cur, p.pool, &p.poolIdx, p.src)
}

func (p *perfectPolicy) exploring(int) bool { return false }

func (p *perfectPolicy) observe(RoundRecord) {}

// barrenPatience tolerates a bounded run of barren rounds: the first barren
// round terminates the game only when it is the opening round (the paper's
// Case 1); later ones are jitter artifacts of the quote path and are
// tolerated while the task party keeps escalating.
func (p *perfectPolicy) barrenPatience() int { return 25 }

// preparePerfect defaults and validates the session configuration and
// derives the random stream and candidate pool exactly as every perfect
// run does — the stream consumption order is part of a seed's contract.
func (s *Session) preparePerfect() (*perfectPolicy, error) {
	cfg := s.cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	quote := EquilibriumPrice(cfg.InitRate, cfg.InitBase, cfg.TargetGain)
	if quote.High > cfg.Budget {
		return nil, fmt.Errorf("core: initial quote ceiling %v exceeds budget %v", quote.High, cfg.Budget)
	}
	src := rng.New(cfg.Seed)
	// Algorithm 1 line 16: the strategic task party samples its candidate
	// quote set up-front (all satisfying Eq. 5) and escalates through it in
	// ascending-ceiling order, offering "the rest of the candidate price
	// offers" round by round.
	var pool []QuotedPrice
	if cfg.TaskStrategy == TaskStrategic || cfg.TaskStrategy == TaskBisection {
		pool = samplePricePool(cfg, cfg.PriceSamples, src.Split(0x9001))
		slices.SortFunc(pool, byHigh)
	}
	return &perfectPolicy{cfg: cfg, src: src, pool: pool, open: quote}, nil
}

// byHigh orders quotes by ascending ceiling for the strategic pool sort.
// It compares with < both ways, so a NaN ceiling ties with everything (as
// under the less function it replaced; cmp.Compare would order NaN first).
func byHigh(a, b QuotedPrice) int {
	switch {
	case a.High < b.High:
		return -1
	case b.High < a.High:
		return 1
	}
	return 0
}

// play drives the unified quote → offer → realize → settle protocol of one
// bargaining session, whatever the information regime: the policy owns the
// task party's quote path and exploration schedule, the seller owns bundle
// selection and its own Case 2/3 commitments, realize prices the offered
// bundle through the VFL course. It fills res (rounds, final record,
// outcome, the seller's target-bundle hint) and streams to the session's
// observers; a context or transport error abandons the run and is returned
// instead.
func (s *Session) play(ctx context.Context, cfg SessionConfig, policy buyerPolicy, seller Seller,
	realize func(SellerOffer) float64, res *Result) error {
	return s.playFrom(ctx, cfg, policy, seller, realize, res, 1)
}

// playFrom is play starting at an arbitrary round — the resume entry point.
// start > 1 means rounds 1..start-1 already happened (the policy and seller
// were restored to their post-settlement state of round start-1) and the
// round-start quote is derived exactly as the uninterrupted loop would have:
// policy.next(·, start) from the stream position the checkpoint froze.
func (s *Session) playFrom(ctx context.Context, cfg SessionConfig, policy buyerPolicy, seller Seller,
	realize func(SellerOffer) float64, res *Result, start int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	quote := policy.opening()

	record := func(T int, q QuotedPrice, bundleID int, gain float64) RoundRecord {
		return RoundRecord{
			Round: T, Price: q, BundleID: bundleID, Gain: gain,
			Payment:   q.Payment(gain),
			NetProfit: float64(cfg.U*gain) - q.Payment(gain),
			TaskCost:  cfg.TaskCost.At(T),
			DataCost:  cfg.DataCost.At(T),
		}
	}
	finish := func(outcome Outcome) error {
		res.Outcome = outcome
		if n := len(res.Rounds); n > 0 {
			res.Final = res.Rounds[n-1]
		}
		// The result may be kept long after the session: drop the spare
		// capacity append grew the rounds to.
		if cap(res.Rounds) > len(res.Rounds) {
			res.Rounds = slices.Clone(res.Rounds)
		}
		s.notifyOutcome(*res)
		return nil
	}
	// Abandon is best-effort: the walk-away outcome is decided locally, so
	// a failure to notify the seller does not change it.
	abandon := func(T int) { _ = seller.Abandon(T) }

	// barren counts consecutive rounds in which the data party had nothing
	// it could rationally offer; the policy decides how many are tolerated.
	patience := policy.barrenPatience()
	barren := 0
	if start > 1 {
		next, ok := policy.next(quote, start)
		if !ok {
			abandon(start)
			return finish(FailMaxRounds)
		}
		quote = next
	}
	for T := start; T <= cfg.MaxRounds; T++ {
		if err := checkCtx(ctx, T); err != nil {
			return err
		}
		// ---- Step 2 (data party): choose a bundle under the quote. ----
		offer, err := seller.Offer(T, quote)
		if err != nil {
			return fmt.Errorf("core: round %d offer: %w", T, err)
		}
		if res.TargetBundleID < 0 && offer.TargetBundleID >= 0 {
			res.TargetBundleID = offer.TargetBundleID
		}
		if offer.Fail {
			barren++
			if T == 1 || barren > patience {
				abandon(T)
				return finish(FailData) // Case 1 / Case I
			}
			next, ok := policy.next(quote, T+1)
			if !ok {
				abandon(T)
				return finish(FailMaxRounds)
			}
			quote = next
			continue
		}
		barren = 0

		// ---- Step 3: the VFL course realizes the gain. ----
		gain := realize(offer)
		rec := record(T, quote, offer.BundleID, gain)
		res.Rounds = append(res.Rounds, rec)
		s.notifyRound(rec)
		policy.observe(rec)

		// Termination precedence: the seller's commitment (Cases 2/3)
		// closes the deal before the task party's own checks; then Case 4
		// (walk away), Case 5 (target met), Case 6 under cost. During
		// exploration (Case VII) the game never terminates: both parties
		// keep sampling so the estimators train.
		decision, outcome := SettleContinue, Success
		if !policy.exploring(T) {
			switch {
			case offer.Accept:
				decision = SettleAccept
			case gain < BreakEvenGain(cfg.U, quote):
				// Case 4: negative net profit — walk away.
				decision, outcome = SettleFail, FailTask
			case gain >= quote.TargetGain()-cfg.EpsTask:
				// Case 5: the target is met — pay.
				decision = SettleAccept
			case taskAcceptsUnderCost(cfg.U, quote, gain, cfg.TaskCost, T, cfg.EpsTaskC):
				// Case 6 with cost: further rounds cannot recoup their cost.
				decision = SettleAccept
			}
		}
		// The settlement is announced for every realized round — it is the
		// realized-gain feedback an estimation-based seller trains on.
		if err := seller.Settle(T, rec, decision); err != nil {
			return fmt.Errorf("core: round %d settlement: %w", T, err)
		}
		if decision != SettleContinue {
			return finish(outcome)
		}
		// Both parties settled and continue: the one moment their states
		// are in lockstep — the resume point a checkpoint freezes.
		s.checkpoint(T, policy, seller, res)
		// Case 6 / Case VII: escalate (or re-sample) the quote.
		next, ok := policy.next(quote, T+1)
		if !ok {
			// The budget cannot support a better quote; the game stalls and
			// the transaction fails by round exhaustion.
			abandon(T)
			return finish(FailMaxRounds)
		}
		quote = next
	}
	abandon(cfg.MaxRounds)
	return finish(FailMaxRounds)
}

// nextQuote produces the task party's escalated offer. For TaskStrategic it
// walks the pre-sampled Eq. 5-conforming candidate set in ascending-ceiling
// order — each round offers the cheapest remaining ceiling above the current
// one, i.e. the argmin-Ph of "the rest of the candidate price offers"
// (Algorithm 1 line 17). For TaskIncreasePrice it bumps the components
// arbitrarily with no Eq. 5 constraint.
func nextQuote(cfg SessionConfig, cur QuotedPrice, pool []QuotedPrice, poolIdx *int,
	src *rng.Source) (QuotedPrice, bool) {
	switch cfg.TaskStrategy {
	case TaskIncreasePrice:
		q := QuotedPrice{
			Rate: math.Min(cfg.U*0.999, cur.Rate*(1+src.Uniform(0, 0.08))),
			Base: cur.Base * (1 + src.Uniform(0, 0.05)),
			High: math.Min(cfg.Budget, cur.High*(1+src.Uniform(0, 0.10))),
		}
		if q.High < q.Base {
			q.High = q.Base
		}
		if q.High >= cfg.Budget && q.Base >= cfg.Budget {
			return cur, false
		}
		return q, true
	case TaskBisection:
		// Every call means the last probe failed to elicit the target, so
		// jump halfway into the remaining more-expensive candidates.
		remaining := len(pool) - *poolIdx
		if remaining <= 0 {
			return cur, false
		}
		step := remaining / 2
		if step < 1 {
			step = 1
		}
		*poolIdx += step
		if *poolIdx > len(pool) {
			return cur, false
		}
		return pool[*poolIdx-1], true
	default:
		for *poolIdx < len(pool) {
			q := pool[*poolIdx]
			*poolIdx++
			if q.High > cur.High {
				return q, true
			}
		}
		return cur, false
	}
}

// samplePricePool draws the task party's up-front candidate quote set:
// every member satisfies Eq. 5 at the target gain, with
// p ∈ (p0, rateCap], Ph ∈ (Ph^0, B], P0 = Ph − p·ΔG* ≥ P0^0
// (Algorithm 1 line 16). Individual rationality adds one more ceiling: a
// quote with Ph ≥ u·ΔG* earns non-positive net profit even when the target
// is hit, so no rational task party ever offers it.
//
// The rate is coupled to the ceiling — low ceilings carry low rates — with
// a small jitter. This makes the escalation "incremental" in the paper's
// sense: walking the pool by ascending ceiling sweeps (p, P0) up a nearly
// monotone diagonal through the reserve-price plane, so the set of
// affordable bundles (almost) only grows from round to round.
func samplePricePool(s SessionConfig, size int, src *rng.Source) []QuotedPrice {
	minHigh := s.InitBase + float64(s.InitRate*s.TargetGain)
	maxHigh := math.Min(s.Budget, 0.99*s.U*s.TargetGain)
	if maxHigh <= minHigh {
		return nil // no rational escalation exists above the opening quote
	}
	rcap := s.rateCap()
	pool := make([]QuotedPrice, 0, size)
	for guard := 0; len(pool) < size && guard < size*100; guard++ {
		high := src.Uniform(minHigh, maxHigh)
		maxRate := math.Min(rcap, (high-s.InitBase)/s.TargetGain)
		if maxRate <= s.InitRate {
			continue
		}
		t := (high - minHigh) / (maxHigh - minHigh)
		rate := s.InitRate + float64((rcap-s.InitRate)*t) + float64(src.Uniform(-0.06, 0.06)*(rcap-s.InitRate))
		rate = math.Min(math.Max(rate, s.InitRate*1.0001), maxRate)
		q := QuotedPrice{Rate: rate, High: high, Base: high - float64(rate*s.TargetGain)}
		if q.Base < s.InitBase {
			continue
		}
		pool = append(pool, q)
	}
	return pool
}
