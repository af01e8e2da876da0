// Package vflmarket is the public API of the bargaining-based feature
// trading market for vertical federated learning, reproducing Cui et al.,
// "A Bargaining-based Approach for Feature Trading in Vertical Federated
// Learning" (ICDE 2025).
//
// The market couples one task party (the buyer: owns labels, wants model
// performance) with one data party (the seller: owns feature bundles with
// private reserved prices). The task party quotes a price (p, P0, Ph); the
// data party answers with a feature bundle; a VFL course realizes a
// performance gain ΔG that prices the transaction through
// min{max{P0, P0 + p·ΔG}, Ph}. Bargaining iterates until the equilibrium
// criterion (Ph - P0)/p = ΔG is met or a party walks away.
//
// Quick start:
//
//	engine, err := vflmarket.NewEngine("titanic", vflmarket.WithSeed(1))
//	res, err := engine.Bargain(ctx, vflmarket.BargainOptions{})
//	fmt.Println(res.Outcome, res.Final.Payment)
//
// An Engine is built once and then runs any number of bargaining sessions,
// serially or concurrently. Every run entry point takes a context.Context
// and honors cancellation and deadlines between bargaining rounds; attach
// RoundObservers to stream per-round progress instead of waiting for the
// final trace; use Engine.BargainBatch to play many sessions across a
// bounded worker pool with deterministic per-session randomness.
//
// The market also runs as a network service — the two-organisation
// deployment the paper's production setting implies. A Server exposes any
// number of named Engines (a multi-market registry) behind one listener
// with a bounded session pool, IO deadlines, metrics, and graceful
// shutdown; Dial returns a Client whose Bargain mirrors Engine.Bargain —
// same options merging, observers, and cancellation — over a
// multiplexed wire protocol with a compact binary envelope, optionally settling
// under Paillier encryption (§3.6). Because the networked client plays the
// exact same game loop as the in-process engine, its results are
// bit-identical for the same seed and catalog.
//
// Both information regimes run over the same wire protocol: the handshake
// names the regime, and Client.BargainImperfect plays the §3.5
// estimation-based game — exploration rounds, online-learned ΔG estimators
// on both endpoints, experience replay — against a remote data party that
// trains on the realized gains each settlement feeds back. The same
// bit-identity contract holds: a networked imperfect session reproduces
// Engine.BargainImperfect exactly for the same seed and mirrored engines
// (imperfect sessions settle in clear — the realized gain is the training
// signal — so they are refused by Paillier-settling servers).
//
// The underlying pieces — the bargaining engines, the wire protocol, the
// VFL simulator, the dataset generators, the experiment harness
// regenerating every table and figure of the paper — live in internal
// packages and surface here through type aliases, so downstream code needs
// only this import.
package vflmarket

import (
	"repro/internal/core"
)

// Re-exported pricing and bargaining types. See the core package docs on
// each for the paper mapping (Eq. 2 payments, Eq. 5 equilibrium, Cases 1–6
// and I–VII termination).
type (
	// QuotedPrice is the task party's offer p = (p, P0, Ph).
	QuotedPrice = core.QuotedPrice
	// ReservedPrice is the data party's private per-bundle floor (p_l, P_l).
	ReservedPrice = core.ReservedPrice
	// Bundle is one tradable good: a set of data-party features.
	Bundle = core.Bundle
	// Catalog is the data party's inventory with per-bundle gains.
	Catalog = core.Catalog
	// CatalogConfig controls catalog generation.
	CatalogConfig = core.CatalogConfig
	// SessionConfig parameterizes one bargaining game.
	SessionConfig = core.SessionConfig
	// ImperfectParams are the knobs of estimation-based bargaining
	// (exploration rounds N, candidate pool, replay budget).
	ImperfectParams = core.ImperfectParams
	// Result is a bargaining trace and outcome.
	Result = core.Result
	// ImperfectResult adds the estimator learning curves.
	ImperfectResult = core.ImperfectResult
	// RoundRecord is one bargaining round's state.
	RoundRecord = core.RoundRecord
	// Outcome is how a session ended.
	Outcome = core.Outcome
	// CostModel is a bargaining-cost function C(T).
	CostModel = core.CostModel
	// GainProvider supplies per-bundle performance gains.
	GainProvider = core.GainProvider
	// GainFunc adapts a function to GainProvider.
	GainFunc = core.GainFunc
	// RoundObserver streams bargaining progress: OnRound per realized
	// round, OnOutcome once at termination.
	RoundObserver = core.RoundObserver
	// ObserverFuncs adapts plain functions to RoundObserver.
	ObserverFuncs = core.ObserverFuncs
)

// Re-exported enum values.
const (
	Success       = core.Success
	FailData      = core.FailData
	FailTask      = core.FailTask
	FailMaxRounds = core.FailMaxRounds

	TaskStrategic     = core.TaskStrategic
	TaskIncreasePrice = core.TaskIncreasePrice
	TaskBisection     = core.TaskBisection
	DataStrategic     = core.DataStrategic
	DataRandomBundle  = core.DataRandomBundle

	NoCost     = core.NoCost
	LinearCost = core.LinearCost
	ExpCost    = core.ExpCost
)

// EquilibriumPrice returns the quote whose payment knee sits exactly at
// targetGain (Theorem 3.1).
func EquilibriumPrice(rate, base, targetGain float64) QuotedPrice {
	return core.EquilibriumPrice(rate, base, targetGain)
}

// Config selects and sizes a market environment. It is the struct form of
// the functional options accepted by NewEngine; New and NewEngineFromConfig
// take it directly.
type Config struct {
	// Dataset is "titanic", "credit", or "adult".
	Dataset string
	// Model is "forest" (default) or "mlp".
	Model string
	// Synthetic replaces real VFL training with the closed-form gain model
	// (fast; good for exploration).
	Synthetic bool
	// Scale in (0, 1] shrinks data and model sizes; 0 means 1 (paper scale).
	Scale float64
	Seed  uint64
	// ValuationWorkers bounds the valuation oracle's worker pool when
	// catalog construction pre-prices bundles with real VFL training: 0
	// means min(GOMAXPROCS, bundles), 1 restores the serial pre-warming
	// behavior. Synthetic engines never train, so it is inert for them.
	ValuationWorkers int
	// StateDir, when non-empty, binds the engine to a durable state
	// directory (shared process-wide per directory — see SharedMarketState):
	// the engine's valuation oracle is resolved through the directory's
	// registry, so its memoized gains survive restarts and are shared with
	// every engine of the same dataset/seed/config. Ignored when State is
	// set.
	StateDir string
	// State binds the engine to an explicit MarketState handle, taking
	// precedence over StateDir. Used by tests that simulate restarts with
	// OpenMarketState.
	State *MarketState
}
