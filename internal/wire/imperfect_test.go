package wire

// Tests of the imperfect information regime over the wire: the §3.5
// estimation-based game played through AdmitImperfect + Serve /
// BargainImperfectCodec must be bit-identical to the in-process engine,
// and every imperfect-specific failure path must end sessions cleanly.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// imperfectMarket builds the shared synthetic market with the imperfect
// regime's looser tolerances.
func imperfectMarket(t testing.TB, seed uint64) (*core.Catalog, core.SessionConfig, core.GainProvider, core.ImperfectParams) {
	t.Helper()
	cat, cfg, gains := buildMarket(t, seed)
	cfg.EpsTask, cfg.EpsData = 5e-2, 5e-2
	cfg.MaxRounds = 150
	return cat, cfg, gains, core.ImperfectParams{ExplorationRounds: 40, PricePool: 120}
}

// admitted admits ih on srv, failing the test on a refusal, and returns the
// session body servePipe runs.
func admitted(t testing.TB, srv *DataServer, hello *Hello, ih *ImperfectHello) func(Codec) (*SessionSummary, error) {
	t.Helper()
	sess, err := srv.AdmitImperfect(ih)
	if err != nil {
		t.Fatal(err)
	}
	return func(c Codec) (*SessionSummary, error) { return sess.Serve(c, hello) }
}

// runImperfectSession wires an imperfect client and server over net.Pipe.
func runImperfectSession(t *testing.T, seed uint64) (*core.ImperfectResult, *SessionSummary) {
	t.Helper()
	cat, cfg, gains, params := imperfectMarket(t, seed)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	srv.EpsImperfect = cfg.EpsData
	ih := &ImperfectHello{
		Seed: cfg.Seed, Target: cfg.TargetGain,
		ExplorationRounds: params.ExplorationRounds, ReplaySteps: params.ReplaySteps,
	}
	hello := mustHello(t, srv)
	c, done := servePipe(t, admitted(t, srv, hello, ih))
	he, err := link{c}.recv(KindHello)
	if err != nil {
		t.Fatal(err)
	}
	client := &TaskClient{Session: cfg, Gains: gains}
	res, err := client.BargainImperfectCodec(nil, c, he.Hello, params)
	_ = c.Flush()
	c.conn.Close()
	srvSide := <-done
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvSide.err != nil {
		t.Fatalf("server: %v", srvSide.err)
	}
	return res, srvSide.sum
}

func TestWireImperfectMatchesInProcess(t *testing.T) {
	cat, cfg, _, params := imperfectMarket(t, 83)
	want, err := core.NewSession(cat, cfg).RunImperfect(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	got, sum := runImperfectSession(t, 83)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("networked imperfect session diverged from in-process:\nwire:   %v rounds=%d final=%+v mse=%d/%d\nengine: %v rounds=%d final=%+v mse=%d/%d",
			got.Outcome, len(got.Rounds), got.Final, len(got.TaskMSE), len(got.DataMSE),
			want.Outcome, len(want.Rounds), want.Final, len(want.TaskMSE), len(want.DataMSE))
	}
	if sum.Rounds != len(got.Rounds) {
		t.Fatalf("server saw %d rounds, client %d", sum.Rounds, len(got.Rounds))
	}
	if (got.Outcome == core.Success) != sum.Closed {
		t.Fatalf("close mismatch: client %v, server closed=%v", got.Outcome, sum.Closed)
	}
}

func TestServeImperfectRefusesSecure(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 87)
	srv := NewDataServer(cat, cfg.EpsData, testKeys(t))
	if _, err := srv.AdmitImperfect(&ImperfectHello{Seed: 1, Target: 0.1}); err == nil {
		t.Fatal("secure server admitted an imperfect session")
	}
}

func TestServeImperfectRejectsBadHello(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 89)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	if _, err := srv.AdmitImperfect(nil); err == nil {
		t.Fatal("server admitted an imperfect session without parameters")
	}
	for _, target := range []float64{0, -2, math.Inf(1), math.NaN()} {
		if _, err := srv.AdmitImperfect(&ImperfectHello{Seed: 1, Target: target}); err == nil {
			t.Fatalf("server admitted target gain %v", target)
		}
	}
}

// A settlement whose realized gain is not finite would silently poison the
// server's estimator; the session must fail cleanly instead.
func TestServeImperfectRejectsNonFiniteGain(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 91)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	hello := mustHello(t, srv)
	c, done := servePipe(t, admitted(t, srv, hello, &ImperfectHello{Seed: 3, Target: cfg.TargetGain}))
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4, U: cfg.U, Target: cfg.TargetGain}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindSettle, Settle: &Settle{Gain: math.NaN(), Decision: core.SettleContinue}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Flush()
	if r := <-done; r.err == nil {
		t.Fatal("server trained on a NaN realized gain")
	}
}

// A well-framed Settle with no payload in the settlement slot must fail
// the session cleanly, not panic the server.
func TestServeImperfectRejectsPayloadlessSettle(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 93)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	hello := mustHello(t, srv)
	c, done := servePipe(t, admitted(t, srv, hello, &ImperfectHello{Seed: 3, Target: cfg.TargetGain}))
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4, U: cfg.U, Target: cfg.TargetGain}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindSettle}); err != nil {
		t.Fatal(err)
	}
	_ = c.Flush()
	if r := <-done; r.err == nil {
		t.Fatal("server accepted a payloadless settlement")
	}
}
