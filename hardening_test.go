package vflmarket

// Service-level tests of the protocol v3 hardening: a client whose
// imperfect hello demands more exploration or replay compute than the
// server caps is refused with an error envelope in place of the Hello —
// counted as a rejection, with no session state built — while compliant
// clients on the same server bargain normally.

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestServiceRefusesAbusiveImperfectHello dials a server with an abusive
// exploration budget, past wire.MaxExplorationRounds: the session must be
// refused with the cap named in the error, counted as rejected, and leave
// the server fully serviceable for a compliant client.
func TestServiceRefusesAbusiveImperfectHello(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()
	engine := engines["titanic"]

	abusive, err := Dial(context.Background(), addr,
		WithMarket("titanic"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(ImperfectParams{ExplorationRounds: 10_000, PricePool: 100}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abusive.BargainImperfect(context.Background(), BargainOptions{Seed: 5}); err == nil {
		t.Fatal("server served an abusive exploration budget")
	} else if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("refusal does not name the cap: %v", err)
	}

	replayHog, err := Dial(context.Background(), addr,
		WithMarket("titanic"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(ImperfectParams{ExplorationRounds: 30, ReplaySteps: 512, PricePool: 100}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayHog.BargainImperfect(context.Background(), BargainOptions{Seed: 5}); err == nil {
		t.Fatal("server served an abusive replay budget")
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Rejected < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want >= 2 rejected", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := srv.Metrics(); m.Sessions != 0 {
		t.Fatalf("refused hellos opened %d sessions", m.Sessions)
	}

	// A compliant client on the same server still bargains end to end.
	polite, err := Dial(context.Background(), addr,
		WithMarket("titanic"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(ImperfectParams{ExplorationRounds: 30, PricePool: 100}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := polite.BargainImperfect(context.Background(), BargainOptions{Seed: 5}); err != nil {
		t.Fatalf("compliant client refused: %v", err)
	}
}
