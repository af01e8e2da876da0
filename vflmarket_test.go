package vflmarket

import (
	"context"
	"math"
	"testing"
)

func fastMarket(t testing.TB, ds string) *Engine {
	t.Helper()
	m, err := NewEngineFromConfig(Config{Dataset: ds, Synthetic: true, Scale: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewDefaultsToTitanic(t *testing.T) {
	m, err := NewEngineFromConfig(Config{Synthetic: true, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Catalog().Len() == 0 {
		t.Fatal("empty catalog")
	}
}

func TestNewRejectsUnknowns(t *testing.T) {
	if _, err := NewEngineFromConfig(Config{Dataset: "mnist"}); err == nil {
		t.Fatal("expected dataset error")
	}
	if _, err := NewEngineFromConfig(Config{Dataset: "titanic", Model: "transformer"}); err == nil {
		t.Fatal("expected model error")
	}
}

func TestBargainSucceeds(t *testing.T) {
	m := fastMarket(t, "titanic")
	res, err := m.Bargain(context.Background(), BargainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Final.NetProfit <= 0 || res.Final.Payment <= 0 {
		t.Fatalf("degenerate deal: %+v", res.Final)
	}
	// The equilibrium criterion holds at close.
	slack := res.Final.Price.TargetGain() - res.Final.Gain
	if slack > 2e-3+1e-9 {
		t.Fatalf("closing slack %v", slack)
	}
}

func TestBargainWithCustomSession(t *testing.T) {
	m := fastMarket(t, "adult")
	cfg := m.Session()
	cfg.Seed = 11
	cfg.MaxRounds = 5 // force exhaustion
	res, err := m.BargainWith(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) > 5 {
		t.Fatalf("rounds = %d, cap 5", len(res.Rounds))
	}
}

func TestBargainImperfectRuns(t *testing.T) {
	m := fastMarket(t, "titanic")
	res, err := m.BargainImperfect(context.Background(), 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 30 && res.Outcome != FailMaxRounds {
		t.Fatalf("terminated during exploration: %v after %d rounds", res.Outcome, len(res.Rounds))
	}
	if len(res.TaskMSE) != len(res.Rounds) {
		t.Fatal("MSE trace length mismatch")
	}
}

func TestBargainBaselinesThroughFacade(t *testing.T) {
	m := fastMarket(t, "titanic")
	res, err := m.Bargain(context.Background(), BargainOptions{Seed: 1, DataGreed: DataRandomBundle})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Outcome {
	case Success, FailTask, FailMaxRounds:
	default:
		t.Fatalf("unexpected outcome %v", res.Outcome)
	}
	res2, err := m.Bargain(context.Background(), BargainOptions{Seed: 1, TaskGreed: TaskIncreasePrice})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome == FailData {
		t.Fatalf("unexpected outcome %v", res2.Outcome)
	}
}

func TestBargainWithCost(t *testing.T) {
	m := fastMarket(t, "titanic")
	free, err := m.Bargain(context.Background(), BargainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := m.Bargain(context.Background(), BargainOptions{
		Seed:     2,
		TaskCost: CostModel{Kind: LinearCost, Factor: 1},
		DataCost: CostModel{Kind: LinearCost, Factor: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Outcome == Success && free.Outcome == Success &&
		len(costly.Rounds) > len(free.Rounds) {
		t.Fatalf("cost lengthened bargaining: %d vs %d", len(costly.Rounds), len(free.Rounds))
	}
}

func TestEquilibriumPriceAlias(t *testing.T) {
	q := EquilibriumPrice(10, 1, 0.2)
	if math.Abs(q.TargetGain()-0.2) > 1e-12 {
		t.Fatalf("TargetGain = %v", q.TargetGain())
	}
}

func TestSessionIsACopy(t *testing.T) {
	m := fastMarket(t, "titanic")
	s := m.Session()
	s.U = -1
	if m.Session().U == -1 {
		t.Fatal("Session leaked internal state")
	}
}

func TestRealVFLMarketSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real VFL training in -short mode")
	}
	m, err := NewEngineFromConfig(Config{Dataset: "titanic", Scale: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Bargain(context.Background(), BargainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success && res.Outcome != FailMaxRounds && res.Outcome != FailTask {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}
