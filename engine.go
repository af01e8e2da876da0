package vflmarket

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/vfl"
)

// Option configures an Engine at construction time.
type Option func(*Config)

// WithModel selects the VFL base model: "forest" (default) or "mlp".
func WithModel(model string) Option { return func(c *Config) { c.Model = model } }

// WithSynthetic replaces real VFL training with the closed-form gain model
// (fast; good for exploration and tests).
func WithSynthetic(on bool) Option { return func(c *Config) { c.Synthetic = on } }

// WithScale shrinks data and model sizes by a factor in (0, 1]; 1 is paper
// scale.
func WithScale(scale float64) Option { return func(c *Config) { c.Scale = scale } }

// WithSeed sets the master seed the environment (catalog, gains, opening
// quote) is generated from.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// Engine is a built market environment — the data party's priced catalog
// plus the task party's session template — ready to run any number of
// bargaining sessions. An Engine is immutable after construction and safe
// for concurrent use: every run derives all mutable state from its own
// session configuration.
type Engine struct {
	env   *exp.Env
	state *MarketState
}

// NewEngine builds an engine for the named dataset ("titanic", "credit",
// or "adult"; "" means titanic): generate data, split it vertically, train
// (or synthesize) the per-bundle gains, and derive the opening quote and
// target gain.
func NewEngine(ds string, opts ...Option) (*Engine, error) {
	cfg := Config{Dataset: ds}
	for _, o := range opts {
		o(&cfg)
	}
	return NewEngineFromConfig(cfg)
}

// NewEngineFromConfig is NewEngine with the options in struct form.
func NewEngineFromConfig(cfg Config) (*Engine, error) {
	name := dataset.Name(cfg.Dataset)
	switch name {
	case dataset.Titanic, dataset.Credit, dataset.Adult:
	case "":
		name = dataset.Titanic
	default:
		return nil, fmt.Errorf("vflmarket: unknown dataset %q", cfg.Dataset)
	}
	var model vfl.BaseModel
	switch cfg.Model {
	case "", "forest":
		model = vfl.RandomForest
	case "mlp":
		model = vfl.MLP
	default:
		return nil, fmt.Errorf("vflmarket: unknown model %q (want \"forest\" or \"mlp\")", cfg.Model)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	p := exp.DefaultProfile(name, model).Scaled(scale)
	if cfg.Synthetic {
		p.GainSource = exp.GainSynthetic
	}
	if cfg.State != nil {
		// Route the valuation oracle through the durable registry BEFORE the
		// environment prices its catalog: a warm store then answers every
		// pre-pricing valuation from the preloaded memo, with zero trainings.
		p.Registry = cfg.State.Registry()
	}
	env, err := exp.BuildEnv(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Engine{env: env, state: cfg.State}, nil
}

// State returns the durable MarketState the engine was bound to, nil for a
// memory-only engine.
func (e *Engine) State() *MarketState { return e.state }

// FlushState spills the engine's durable state (the valuation memo, plus
// anything else sharing the MarketState) to disk. A no-op without a bound
// state.
func (e *Engine) FlushState() error {
	if e.state == nil {
		return nil
	}
	return e.state.Flush()
}

// Catalog exposes the data party's inventory.
func (e *Engine) Catalog() *Catalog { return e.env.Catalog }

// CatalogGains returns a GainProvider that resolves a feature set to its
// pre-computed gain in this engine's catalog (0 for unknown bundles). It
// is the task party's Step 3 stand-in when both parties pre-trained every
// bundle with the trusted third party — the natural gain provider for a
// networked Client bargaining against a server built from the same
// dataset and seed.
func (e *Engine) CatalogGains() GainProvider {
	cat := e.env.Catalog
	return core.GainFunc(func(features []int) float64 {
		if id, ok := cat.FindBundle(features); ok {
			return cat.Gain(id)
		}
		return 0
	})
}

// seedIsSet reports whether a seed option was explicitly given. Across the
// public API, a zero seed means "inherit or derive": BargainOptions.Seed 0
// keeps the template seed, BatchSpec.Seed 0 falls through to the spec's
// session seed and then to a seed derived from BatchOptions.Seed and the
// spec index. Every "is this seed set" check routes through here so the
// convention lives in one place.
func seedIsSet(seed uint64) bool { return seed != 0 }

// Session returns the session template: target gain ΔG* = ΔG_max, the
// opening quote, paper-default tolerances. Callers may adjust a copy and
// pass it to BargainWith or a BatchSpec.
func (e *Engine) Session() SessionConfig { return e.env.Session }

// SessionImperfect returns the session template tuned for the imperfect
// information regime: the same market (opening quote, budget, target gain)
// with the profile's imperfect tolerances εt = εd (§4.4), which absorb
// estimation error. It is the template to Dial a networked client with
// (WithSession) when mirroring Engine.BargainImperfect over the wire.
func (e *Engine) SessionImperfect() SessionConfig {
	cfg := e.env.Session
	cfg.EpsTask = e.env.Profile.EpsImperfect
	cfg.EpsData = e.env.Profile.EpsImperfect
	return cfg
}

// OracleStats reports the valuation oracle's counters: VFL courses
// actually trained and bundle gains memoized so far. Both are 0 for
// synthetic-gain engines, which never train. The oracle is shared by every
// session of the engine, so the counters measure the engine's cumulative
// training load. OracleMetrics adds the flight metrics.
func (e *Engine) OracleStats() (trainings, cachedGains int) {
	if e.env.Oracle == nil {
		return 0, 0
	}
	return e.env.Oracle.Trainings(), e.env.Oracle.CacheSize()
}

// OracleMetrics snapshots the full valuation-oracle load, including the
// singleflight's flight metrics: memo hits (valuations served without
// training) and coalesced callers (waiters that piggybacked on an
// in-flight training instead of starting their own). All zero for
// synthetic-gain engines, which have no oracle.
func (e *Engine) OracleMetrics() vfl.OracleStats {
	if e.env.Oracle == nil {
		return vfl.OracleStats{}
	}
	return e.env.Oracle.Stats()
}

// BargainOptions tweak a standard bargaining run. Unset fields keep the
// engine template's values (which themselves fall back to the
// SessionConfig defaults), so a zero BargainOptions plays the template
// session unchanged.
type BargainOptions struct {
	// Seed sets the session's random stream. By the API-wide convention, 0
	// means "inherit": the template session's own seed stays in effect (see
	// seedIsSet). To play the zero-seed stream explicitly, set the seed on
	// a SessionConfig and use BargainWith.
	Seed      uint64
	TaskGreed core.TaskStrategy // default: the template strategy (TaskStrategic)
	DataGreed core.DataStrategy // default: the template strategy (DataStrategic)
	TaskCost  CostModel         // zero value keeps the template cost model
	DataCost  CostModel         // zero value keeps the template cost model
	// Observers stream the session's rounds and outcome as they happen.
	Observers []RoundObserver
}

// mergeBargainOptions overlays the set fields of opts on the template
// session. Unset (zero-valued) options leave the template untouched rather
// than zeroing it, so template defaults survive a partial BargainOptions.
func mergeBargainOptions(tmpl SessionConfig, opts BargainOptions) SessionConfig {
	if seedIsSet(opts.Seed) {
		tmpl.Seed = opts.Seed
	}
	if opts.TaskGreed != TaskStrategic {
		tmpl.TaskStrategy = opts.TaskGreed
	}
	if opts.DataGreed != DataStrategic {
		tmpl.DataStrategy = opts.DataGreed
	}
	if opts.TaskCost != (CostModel{}) {
		tmpl.TaskCost = opts.TaskCost
	}
	if opts.DataCost != (CostModel{}) {
		tmpl.DataCost = opts.DataCost
	}
	return tmpl
}

// Bargain plays one perfect-information bargaining game with the template
// session, cancellable between rounds through ctx.
func (e *Engine) Bargain(ctx context.Context, opts BargainOptions) (*Result, error) {
	cfg := mergeBargainOptions(e.env.Session, opts)
	return core.NewSession(e.env.Catalog, cfg).Observe(opts.Observers...).RunPerfect(ctx)
}

// BargainWith plays one perfect-information game with a fully custom
// session configuration, streaming progress to any attached observers.
func (e *Engine) BargainWith(ctx context.Context, cfg SessionConfig, obs ...RoundObserver) (*Result, error) {
	return core.NewSession(e.env.Catalog, cfg).Observe(obs...).RunPerfect(ctx)
}

// BargainImperfect plays one imperfect-information game: neither party
// knows bundle gains in advance; both learn estimators online
// (explorationRounds is N of Case VII; 0 means 100).
func (e *Engine) BargainImperfect(ctx context.Context, seed uint64, explorationRounds int, obs ...RoundObserver) (*ImperfectResult, error) {
	cfg := e.SessionImperfect()
	cfg.Seed = seed
	return e.BargainImperfectWith(ctx, cfg, ImperfectParams{ExplorationRounds: explorationRounds}, obs...)
}

// BargainImperfectWith plays one imperfect-information game with a fully
// custom session configuration and explicit regime knobs, streaming
// progress to any attached observers. It mirrors BargainWith for the
// imperfect regime.
func (e *Engine) BargainImperfectWith(ctx context.Context, cfg SessionConfig, params ImperfectParams, obs ...RoundObserver) (*ImperfectResult, error) {
	return core.NewSession(e.env.Catalog, cfg).Observe(obs...).RunImperfect(ctx, params)
}

// BatchSpec is one session of a batch run.
type BatchSpec struct {
	// Session overrides the engine's template session when non-nil.
	Session *SessionConfig
	// Seed overrides the session seed. By the API-wide convention (see
	// seedIsSet), 0 means "inherit/derive": the session keeps its own seed
	// if set, and otherwise gets one derived from BatchOptions.Seed and the
	// spec's index — giving every session of the batch an independent,
	// scheduling-free random stream.
	Seed uint64
	// Observer, when non-nil, streams this session's rounds and outcome.
	// It is called from the worker goroutine playing the session.
	Observer RoundObserver
}

// BatchOptions control a batch run.
type BatchOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Seed is the master seed that per-session seeds are derived from for
	// specs that set neither a Seed nor a seeded Session.
	Seed uint64
}

// BargainBatch plays one perfect-information game per spec across a bounded
// worker pool and returns the results in spec order. Results are
// deterministic in the specs and BatchOptions.Seed alone: the worker count
// only changes wall-clock time, never outcomes, because each session runs
// on its own derived random stream.
//
// The first session error — including ctx cancellation, checked between
// rounds of every in-flight session — abandons the rest of the batch;
// unfinished slots are left nil and the error is returned alongside the
// partial results.
func (e *Engine) BargainBatch(ctx context.Context, specs []BatchSpec, opts BatchOptions) ([]*Result, error) {
	return core.Batch(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) (*Result, error) {
		return e.BargainWith(ctx, resolveBatchConfig(e.env.Session, specs[i], opts, i), specs[i].Observer)
	})
}

// resolveBatchConfig overlays one batch spec on a template session under
// the API-wide seed convention (see seedIsSet): an explicit spec seed wins,
// a seeded session keeps its own, and otherwise the session gets a seed
// derived from the batch master seed and the spec index. Engine batches and
// Client.batchConfig apply the same rule, so an engine batch and a client
// batch with the same specs play the same sessions.
func resolveBatchConfig(tmpl SessionConfig, sp BatchSpec, opts BatchOptions, i int) SessionConfig {
	cfg := tmpl
	if sp.Session != nil {
		cfg = *sp.Session
	}
	if seedIsSet(sp.Seed) {
		cfg.Seed = sp.Seed
	} else if !seedIsSet(cfg.Seed) {
		cfg.Seed = rng.DeriveSeed(opts.Seed, uint64(i))
	}
	return cfg
}

// BargainImperfectBatch plays one imperfect-information game (§3.5) per
// spec across a bounded worker pool and returns the results — each with
// both Figure 4 MSE curves — in spec order. Specs without their own session
// resolve against the imperfect template (SessionImperfect), and seeds
// follow the exact convention of BargainBatch and the wire client's
// BargainImperfectBatch, so results are deterministic in the specs and
// BatchOptions.Seed alone — the worker count only changes wall-clock time —
// and an engine batch is bit-identical to the same batch over the wire.
// params applies to every session of the batch (zero values mean the
// paper's defaults).
//
// The first session error — including ctx cancellation, checked between
// rounds of every in-flight session — abandons the rest of the batch;
// unfinished slots are left nil and the error is returned alongside the
// partial results.
func (e *Engine) BargainImperfectBatch(ctx context.Context, specs []BatchSpec, params ImperfectParams, opts BatchOptions) ([]*ImperfectResult, error) {
	tmpl := e.SessionImperfect()
	return core.Batch(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) (*ImperfectResult, error) {
		return e.BargainImperfectWith(ctx, resolveBatchConfig(tmpl, specs[i], opts, i), params, specs[i].Observer)
	})
}
