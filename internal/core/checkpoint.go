package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// This file is the resume surface of the imperfect-information game: both
// parties' mid-session state frozen into plain, codec-friendly values. A
// checkpoint is taken after a mutually settled round — the one moment the
// two endpoints' states are in lockstep — and restoring from it continues
// the session bit-identically, because everything that happens between two
// settlements is a deterministic function of (estimator state, rng stream
// position, history). The wire layer persists SellerCheckpoints server-side
// (keyed by the client identity in ImperfectHello) and replays
// ImperfectCheckpoints client-side, which is what makes a server restart
// invisible to a reconnecting buyer.

// EstimatorState freezes one online estimator: its weight tensors (in the
// model's canonical parameter order) plus its Adam moments. All values are
// copies; a state outlives the model it came from.
type EstimatorState struct {
	Weights [][]float64
	Adam    nn.AdamState
}

// captureEstimator snapshots params and the optimizer bound to them.
func captureEstimator(params []nn.Param, adam *nn.Adam) EstimatorState {
	return EstimatorState{Weights: nn.CaptureParams(params), Adam: adam.State()}
}

// restoreEstimator loads a capture back into params and their optimizer.
func restoreEstimator(params []nn.Param, adam *nn.Adam, st EstimatorState) error {
	if err := nn.RestoreParams(params, st.Weights); err != nil {
		return err
	}
	return adam.Restore(st.Adam)
}

// State freezes the bundle estimator's weights and optimizer moments, in
// its canonical parameter order (mlp then embedding, the list its Adam is
// bound to).
func (e *BundleEstimator) State() EstimatorState {
	return captureEstimator(e.params, e.opt)
}

// SetState restores a capture taken from an identically shaped estimator.
func (e *BundleEstimator) SetState(st EstimatorState) error {
	return restoreEstimator(e.params, e.opt, st)
}

// State freezes the price estimator's weights and optimizer moments.
func (e *PriceEstimator) State() EstimatorState {
	return captureEstimator(e.reg.Params(), e.reg.Optimizer())
}

// SetState restores a capture taken from an identically shaped estimator.
func (e *PriceEstimator) SetState(st EstimatorState) error {
	return restoreEstimator(e.reg.Params(), e.reg.Optimizer(), st)
}

// BundleSample is one realized (bundle, gain) pair of a seller's replay
// buffer, exported for checkpointing.
type BundleSample struct {
	Features []int
	Gain     float64
}

// SellerCheckpoint is the data party's frozen session state after its
// settlement of round Round. It carries everything NewEstimatorSeller
// cannot rederive from the config: the trained g, the positions of the
// exploration and replay streams, the replay buffer, and the round's offer
// and pre-update MSE (so a server that settled one round more than the
// client witnessed can replay that round's answer idempotently).
type SellerCheckpoint struct {
	// Round is the last round this seller settled.
	Round int
	// Config rebuilds the seller; a resume under a different config is
	// refused rather than silently diverging.
	Config EstimatorSellerConfig

	G          EstimatorState
	ExploreRNG []byte
	ReplayRNG  []byte
	History    []BundleSample

	// LastOffer is the offer of round Round and LastMSE g's pre-update
	// error on its settlement — the idempotent replay answers for a client
	// that never saw them.
	LastOffer SellerOffer
	LastMSE   float64
}

// Snapshot freezes the seller's state as of its last settled round.
// Snapshotting an unsettled seller (Round 0) is valid and restores to a
// fresh one.
func (s *EstimatorSeller) Snapshot() (*SellerCheckpoint, error) {
	explore, err := s.exploreSrc.State()
	if err != nil {
		return nil, err
	}
	replay, err := s.replaySrc.State()
	if err != nil {
		return nil, err
	}
	hist := make([]BundleSample, len(s.history))
	for i, h := range s.history {
		hist[i] = BundleSample{Features: append([]int(nil), h.features...), Gain: h.gain}
	}
	return &SellerCheckpoint{
		Round:      s.settledRound,
		Config:     s.cfg,
		G:          s.g.State(),
		ExploreRNG: explore,
		ReplayRNG:  replay,
		History:    hist,
		LastOffer:  s.lastOffer,
		LastMSE:    s.LastMSE(),
	}, nil
}

// ErrCheckpointCatalog reports a seller checkpoint that names a feature or
// bundle outside the catalog it is restored over: the checkpoint belongs to
// another catalog or is damaged, and the session must start fresh.
var ErrCheckpointCatalog = errors.New("core: seller checkpoint does not fit the catalog")

// RestoreEstimatorSeller rebuilds a seller over cat from a checkpoint,
// positioned to serve round ck.Round+1. Its DataMSE series restarts empty:
// a resumed session reports only post-resume errors (the checkpoint's
// LastMSE covers the one settlement a resuming client may still need
// acknowledged). A checkpoint whose replay buffer or last offer lies
// outside the catalog is refused with ErrCheckpointCatalog.
func RestoreEstimatorSeller(cat *Catalog, ck *SellerCheckpoint) (*EstimatorSeller, error) {
	s := NewEstimatorSeller(cat, ck.Config)
	for i, h := range ck.History {
		for _, f := range h.Features {
			if f < 0 || f >= s.g.emb.NumIDs {
				return nil, fmt.Errorf("%w: replay sample %d names feature %d, want [0,%d)", ErrCheckpointCatalog, i, f, s.g.emb.NumIDs)
			}
		}
	}
	// A failed offer carries bundle -1; any other names a catalog bundle.
	if id := ck.LastOffer.BundleID; (id < 0 || id >= cat.Len()) && !(id == -1 && ck.LastOffer.Fail) {
		return nil, fmt.Errorf("%w: last offer names bundle %d, want [0,%d)", ErrCheckpointCatalog, id, cat.Len())
	}
	if err := s.g.SetState(ck.G); err != nil {
		return nil, fmt.Errorf("core: restore seller estimator: %w", err)
	}
	if err := s.exploreSrc.SetState(ck.ExploreRNG); err != nil {
		return nil, fmt.Errorf("core: restore seller exploration stream: %w", err)
	}
	if err := s.replaySrc.SetState(ck.ReplayRNG); err != nil {
		return nil, fmt.Errorf("core: restore seller replay stream: %w", err)
	}
	s.history = make([]bundleSample, len(ck.History))
	for i, h := range ck.History {
		s.history[i] = bundleSample{features: append([]int(nil), h.Features...), gain: h.Gain}
	}
	s.settledRound = ck.Round
	s.lastOffer = ck.LastOffer
	return s, nil
}

// ImperfectCheckpoint is the task party's frozen session state after the
// mutually settled round Round: the trained f, its stream positions, and
// the realized trace so far. Feeding it to Session.ResumeImperfectWith
// continues the session bit-identically from round Round+1.
type ImperfectCheckpoint struct {
	// Round is the last mutually settled round.
	Round int
	// Seed and Params pin the session this checkpoint belongs to.
	Seed   uint64
	Params ImperfectParams

	F          EstimatorState
	ExploreRNG []byte
	ReplayRNG  []byte

	// Rounds, TaskMSE, and DataMSE are the realized trace through Round;
	// the resumed result is their continuation.
	Rounds         []RoundRecord
	TaskMSE        []float64
	DataMSE        []float64
	TargetBundleID int
}

// snapshot freezes the policy (and the seller's reported MSE series) after
// the settlement of round T.
func (p *imperfectPolicy) snapshot(T int, res *Result, seller Seller) (*ImperfectCheckpoint, error) {
	explore, err := p.exploreSrc.State()
	if err != nil {
		return nil, err
	}
	replay, err := p.replaySrc.State()
	if err != nil {
		return nil, err
	}
	ck := &ImperfectCheckpoint{
		Round:          T,
		Seed:           p.cfg.Seed,
		Params:         p.params,
		F:              p.f.State(),
		ExploreRNG:     explore,
		ReplayRNG:      replay,
		Rounds:         append([]RoundRecord(nil), res.Rounds...),
		TaskMSE:        append([]float64(nil), p.taskMSE...),
		TargetBundleID: res.TargetBundleID,
	}
	if r, ok := seller.(MSEReporter); ok {
		ck.DataMSE = append([]float64(nil), r.DataMSE()...)
	}
	return ck, nil
}

// restore loads a checkpoint into a freshly prepared policy.
func (p *imperfectPolicy) restore(ck *ImperfectCheckpoint) error {
	if ck.Seed != p.cfg.Seed {
		return fmt.Errorf("core: checkpoint seed %d does not match session seed %d", ck.Seed, p.cfg.Seed)
	}
	if ck.Params != p.params {
		return fmt.Errorf("core: checkpoint params %+v do not match session params %+v", ck.Params, p.params)
	}
	if ck.Round < 1 || ck.Round >= p.cfg.MaxRounds {
		return fmt.Errorf("core: checkpoint round %d out of range [1, %d)", ck.Round, p.cfg.MaxRounds)
	}
	if err := p.f.SetState(ck.F); err != nil {
		return fmt.Errorf("core: restore price estimator: %w", err)
	}
	if err := p.exploreSrc.SetState(ck.ExploreRNG); err != nil {
		return fmt.Errorf("core: restore exploration stream: %w", err)
	}
	if err := p.replaySrc.SetState(ck.ReplayRNG); err != nil {
		return fmt.Errorf("core: restore replay stream: %w", err)
	}
	p.history = append([]RoundRecord(nil), ck.Rounds...)
	p.taskMSE = append([]float64(nil), ck.TaskMSE...)
	return nil
}

// OnCheckpoint attaches a checkpoint sink to the session: during an
// imperfect run, fn receives the task party's frozen state after every
// mutually settled, non-terminal round. The sink is invoked synchronously
// from the game loop. It returns the session for chaining.
func (s *Session) OnCheckpoint(fn func(*ImperfectCheckpoint)) *Session {
	s.ckptSink = fn
	return s
}

// checkpoint feeds the sink, if any; only imperfect policies checkpoint.
func (s *Session) checkpoint(T int, policy buyerPolicy, seller Seller, res *Result) {
	if s.ckptSink == nil {
		return
	}
	p, ok := policy.(*imperfectPolicy)
	if !ok {
		return
	}
	if ck, err := p.snapshot(T, res, seller); err == nil {
		s.ckptSink(ck)
	}
}

// ResumeImperfectWith continues a checkpointed imperfect session from round
// ck.Round+1 against a Seller positioned at the same point (a wire peer
// that restored its own checkpoint, or a RestoreEstimatorSeller). The
// continuation is bit-identical to the uninterrupted run: the returned
// result's trace extends the checkpoint's as if the session never stopped.
//
// The seller's MSEReporter series (if any) is taken as post-resume only and
// appended to the checkpoint's DataMSE.
func (sess *Session) ResumeImperfectWith(ctx context.Context, params ImperfectParams,
	ck *ImperfectCheckpoint, seller Seller, gains GainProvider) (*ImperfectResult, error) {
	if gains == nil {
		return nil, fmt.Errorf("core: ResumeImperfectWith needs a gain provider")
	}
	if ck == nil {
		return nil, fmt.Errorf("core: ResumeImperfectWith needs a checkpoint")
	}
	pol, err := sess.prepareImperfect(params)
	if err != nil {
		return nil, err
	}
	defer pol.f.release()
	if err := pol.restore(ck); err != nil {
		return nil, err
	}
	res := &ImperfectResult{}
	res.Rounds = ck.Rounds // playFrom copies the prefix and never writes it
	res.TargetBundleID = ck.TargetBundleID
	realize := func(o SellerOffer) float64 { return gains.Gain(o.Features) }
	if err := sess.playFrom(ctx, pol.cfg, pol, seller, realize, &res.Result, ck.Round+1); err != nil {
		return nil, err
	}
	res.TaskMSE = pol.taskMSE
	res.DataMSE = append([]float64(nil), ck.DataMSE...)
	if r, ok := seller.(MSEReporter); ok {
		res.DataMSE = append(res.DataMSE, r.DataMSE()...)
	}
	return res, nil
}

// Matches reports whether a seller checkpoint belongs to the session a
// resuming client describes: same seed, target, and regime knobs. EpsData
// is server-side configuration and is compared too — a checkpoint from a
// differently configured market must not resume.
func (ck *SellerCheckpoint) Matches(cfg EstimatorSellerConfig) bool {
	return ck.Config.Seed == cfg.Seed &&
		ck.Config.Target == cfg.Target &&
		math.Abs(ck.Config.EpsData-cfg.EpsData) == 0 &&
		ck.Config.Params.WithDefaults() == cfg.Params.WithDefaults()
}
