package core

import (
	"context"
	"fmt"
)

// RoundObserver receives streaming progress from a bargaining session.
// OnRound fires once per realized bargaining round, in round order,
// immediately after the VFL course realizes the gain; OnOutcome fires
// exactly once when the session terminates with an outcome (it does not
// fire when the run aborts with an error, e.g. on context cancellation or
// an invalid configuration).
//
// A session invokes its observers synchronously from the goroutine running
// the game, so a slow observer slows bargaining down. Observers attached to
// different sessions of a batch run concurrently; an observer shared across
// sessions must be safe for concurrent use.
type RoundObserver interface {
	OnRound(rec RoundRecord)
	OnOutcome(res Result)
}

// ObserverFuncs adapts plain functions to RoundObserver. Nil fields are
// skipped.
type ObserverFuncs struct {
	Round   func(rec RoundRecord)
	Outcome func(res Result)
}

// OnRound implements RoundObserver.
func (o ObserverFuncs) OnRound(rec RoundRecord) {
	if o.Round != nil {
		o.Round(rec)
	}
}

// OnOutcome implements RoundObserver.
func (o ObserverFuncs) OnOutcome(res Result) {
	if o.Outcome != nil {
		o.Outcome(res)
	}
}

// Session is one configured bargaining game over a catalog: the unit of
// execution behind every public entry point. A Session is context-aware —
// cancellation and deadlines are honored between bargaining rounds — and
// streams progress to any attached RoundObservers.
//
// A Session is cheap to build and single-use state-free: Run methods derive
// all mutable state from the configuration, so the same Session may be run
// repeatedly (each run replays identically) but must not be run from two
// goroutines at once when observers are attached.
type Session struct {
	cat       *Catalog
	cfg       SessionConfig
	observers []RoundObserver
	// ckptSink, when set via OnCheckpoint, receives the task party's frozen
	// state after every mutually settled, non-terminal imperfect round.
	ckptSink func(*ImperfectCheckpoint)
}

// NewSession pairs a catalog with a session configuration. The
// configuration is defaulted and validated at run time, not here.
func NewSession(cat *Catalog, cfg SessionConfig) *Session {
	return &Session{cat: cat, cfg: cfg}
}

// Observe attaches observers to the session and returns it for chaining.
// Nil observers are ignored.
func (s *Session) Observe(obs ...RoundObserver) *Session {
	for _, o := range obs {
		if o != nil {
			s.observers = append(s.observers, o)
		}
	}
	return s
}

func (s *Session) notifyRound(rec RoundRecord) {
	for _, o := range s.observers {
		o.OnRound(rec)
	}
}

func (s *Session) notifyOutcome(res Result) {
	for _, o := range s.observers {
		o.OnOutcome(res)
	}
}

// checkCtx reports the context error, if any, wrapped with the round at
// which bargaining was abandoned.
func checkCtx(ctx context.Context, round int) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("core: bargaining abandoned before round %d: %w", round, context.Cause(ctx))
	default:
		return nil
	}
}
