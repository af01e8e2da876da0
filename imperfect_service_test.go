package vflmarket

// End-to-end tests of the imperfect information regime through the public
// service API: concurrent clients over both codecs bit-identical to the
// in-process engine (the PR's acceptance scenario, run under -race in CI),
// plus the regime's failure paths — cancellation mid-exploration, stalled
// peers, malformed realized-gain envelopes, secure-mode refusal — and the
// per-market metrics.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// imperfectTestParams keeps service-level imperfect sessions quick.
var imperfectTestParams = ImperfectParams{ExplorationRounds: 30, PricePool: 100}

// dialImperfect dials the market with the imperfect template of its
// mirrored engine. It returns errors rather than failing the test so it
// is safe to call from worker goroutines.
func dialImperfect(addr, mkt string, engine *Engine) (*Client, error) {
	return Dial(context.Background(), addr,
		WithMarket(mkt),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(imperfectTestParams),
	)
}

// TestServiceImperfectConcurrentClients is the acceptance scenario: one
// server, two named markets, four concurrent imperfect clients split
// across markets, every ImperfectResult — trace, outcome, and
// both MSE learning curves — bit-identical to the in-process engine run
// with the same seed.
func TestServiceImperfectConcurrentClients(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		market := "titanic"
		if i%2 == 1 {
			market = "credit"
		}
		seed := uint64(200 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := engines[market]
			client, err := dialImperfect(addr, market, engine)
			if err != nil {
				errs <- fmt.Errorf("%s: dial: %w", market, err)
				return
			}
			got, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: seed})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", market, err)
				return
			}
			want, err := engine.BargainImperfectWith(context.Background(),
				func() SessionConfig { c := engine.SessionImperfect(); c.Seed = seed; return c }(),
				imperfectTestParams)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("%s seed %d: networked imperfect result diverges from in-process:\nwire:   %v rounds=%d final=%+v\nengine: %v rounds=%d final=%+v",
					market, seed, got.Outcome, len(got.Rounds), got.Final,
					want.Outcome, len(want.Rounds), want.Final)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.Sessions != clients || m.Failed != 0 {
		t.Fatalf("metrics = %+v, want %d clean sessions", m, clients)
	}
	mm := srv.MarketMetrics()
	var sessions, imperfect uint64
	for _, name := range []string{"titanic", "credit"} {
		sessions += mm[name].Sessions
		imperfect += mm[name].ImperfectSessions
		if mm[name].ImperfectSessions != mm[name].Sessions {
			t.Fatalf("market %s: %d of %d sessions imperfect, want all", name, mm[name].ImperfectSessions, mm[name].Sessions)
		}
		// Synthetic engines never train, so the oracle counters stay 0.
		if mm[name].OracleTrainings != 0 || mm[name].OracleCachedGains != 0 {
			t.Fatalf("market %s: synthetic oracle counters non-zero: %+v", name, mm[name])
		}
	}
	if sessions != clients || imperfect != clients {
		t.Fatalf("market metrics count %d sessions (%d imperfect), want %d", sessions, imperfect, clients)
	}
}

// TestServiceImperfectCancelMidExploration cancels from a round observer
// while the session is still inside the exploration phase: the run must
// stop between rounds with context.Canceled and the server must survive to
// serve the next session.
func TestServiceImperfectCancelMidExploration(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	obs := ObserverFuncs{Round: func(RoundRecord) {
		rounds++
		if rounds == 5 { // well inside the 30-round exploration phase
			cancel()
		}
	}}
	_, err = client.BargainImperfect(ctx, BargainOptions{Seed: 7, Observers: []RoundObserver{obs}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds >= imperfectTestParams.ExplorationRounds {
		t.Fatalf("cancellation fired after exploration (%d rounds)", rounds)
	}

	res, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < imperfectTestParams.ExplorationRounds {
		t.Fatalf("follow-up session played only %d rounds", len(res.Rounds))
	}
}

// TestServiceImperfectRecycledAfterEviction cuts an imperfect session
// mid-bargain by evicting its market, so both parties' half-trained
// estimators go back to their pools, then registers the market again on
// the same server: the fresh sessions that follow draw recycled
// estimators, and each must equal the in-process engine bit for bit.
func TestServiceImperfectRecycledAfterEviction(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	var evictErr error
	obs := ObserverFuncs{Round: func(RoundRecord) {
		if rounds++; rounds == 8 { // mid-exploration, both estimators trained
			evictErr = srv.Unregister("titanic")
		}
	}}
	if _, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: 7, Observers: []RoundObserver{obs}}); err == nil {
		t.Fatal("the evicted session finished")
	}
	if evictErr != nil {
		t.Fatalf("evict: %v", evictErr)
	}
	if err := srv.Register("titanic", engine); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(40); seed < 43; seed++ {
		got, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d after the eviction: %v", seed, err)
		}
		cfg := engine.SessionImperfect()
		cfg.Seed = seed
		want, err := engine.BargainImperfectWith(context.Background(), cfg, imperfectTestParams)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: networked result after the eviction diverges from in-process: wire %v rounds=%d, engine %v rounds=%d",
				seed, got.Outcome, len(got.Rounds), want.Outcome, len(want.Rounds))
		}
	}
}

// TestServiceImperfectStalledPeer wedges a hand-rolled client mid-
// exploration: the stream's receive timer must end the session with an
// ErrPeerTimeout-wrapped error instead of pinning it forever, and the
// server must count the stall as Watchdog, not Dropped or Failed.
func TestServiceImperfectStalledPeer(t *testing.T) {
	engines := testEngines(t)
	events := make(chan SessionEvent, 8)
	srv, addr, shutdown := startServer(t, engines,
		WithIOTimeout(150*time.Millisecond),
		WithSessionHook(func(ev SessionEvent) { events <- ev }),
	)
	defer shutdown()

	tmpl := engines["titanic"].SessionImperfect()
	mc, s := openRawSession(t, addr, wire.ClientHello{
		Market: "titanic",
		Mode:   wire.ModeImperfect,
		Imperfect: &wire.ImperfectHello{
			Seed: 3, Target: tmpl.TargetGain,
			ExplorationRounds: imperfectTestParams.ExplorationRounds,
		},
	})
	defer mc.Close()
	// One exploration round: quote, take the offer... then go silent.
	err := s.Send(&wire.Envelope{Kind: wire.KindQuote, Quote: &wire.Quote{
		Round: 1, Rate: tmpl.InitRate, Base: tmpl.InitBase,
		High: tmpl.InitBase + tmpl.InitRate*tmpl.TargetGain,
		U:    tmpl.U, Target: tmpl.TargetGain,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Summary == nil && ev.Err == nil {
				continue // the Dial-free handshake has no listing event; skip others
			}
			if ev.Err == nil {
				continue
			}
			if !errors.Is(ev.Err, ErrPeerTimeout) {
				t.Fatalf("session error = %v, want ErrPeerTimeout", ev.Err)
			}
			if m := srv.Metrics(); m.Watchdog != 1 || m.Dropped != 0 || m.Failed != 0 {
				t.Fatalf("stall counted as %+v, want Watchdog=1 Dropped=0 Failed=0", m)
			}
			return
		case <-deadline:
			t.Fatal("server never timed out the stalled exploration peer")
		}
	}
}

// TestServiceImperfectMalformedGainEnvelope feeds the server a valid
// imperfect handshake followed by a settlement with no payload: the
// session must fail cleanly and the server keep serving.
func TestServiceImperfectMalformedGainEnvelope(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	tmpl := engines["titanic"].SessionImperfect()
	mc, s := openRawSession(t, addr, wire.ClientHello{
		Market: "titanic",
		Mode:   wire.ModeImperfect,
		Imperfect: &wire.ImperfectHello{
			Seed: 3, Target: tmpl.TargetGain, ExplorationRounds: 30,
		},
	})
	// Quote → Offer, then a well-framed Settle with no payload in the
	// settlement slot (the "realized gain" that never arrives).
	err := s.Send(&wire.Envelope{Kind: wire.KindQuote, Quote: &wire.Quote{
		Round: 1, Rate: tmpl.InitRate, Base: tmpl.InitBase,
		High: tmpl.InitBase + tmpl.InitRate*tmpl.TargetGain,
		U:    tmpl.U, Target: tmpl.TargetGain,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(&wire.Envelope{Kind: wire.KindSettle}); err != nil {
		t.Fatal(err)
	}
	s.CloseClean()
	mc.Close()

	// A healthy imperfect client still gets served.
	engine := engines["titanic"]
	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: 5}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Metrics().Failed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want >= 1 failed", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceImperfectRefusedUnderPaillier: a secure server advertises the
// perfect regime only and rejects imperfect hellos before bargaining.
func TestServiceImperfectRefusedUnderPaillier(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines, WithSecureSettlement(128))
	defer shutdown()

	engine := engines["titanic"]
	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range client.Modes() {
		if mode == wire.ModeImperfect {
			t.Fatal("secure server advertised the imperfect regime")
		}
	}
	if _, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: 5}); err == nil {
		t.Fatal("secure server accepted an imperfect session")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Rejected < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want >= 1 rejected", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceImperfectRefusalsAnswerBeforeHello opens imperfect sessions
// the data party cannot serve — a target gain of 0, −1 or +Inf, and a
// resume whose stored checkpoint matches the hello but fails to restore —
// and requires each to be refused with an error envelope in place of the
// Hello: ErrRejected well inside the IO timeout, counted as Rejected, with
// no session opened or failed.
func TestServiceImperfectRefusalsAnswerBeforeHello(t *testing.T) {
	const ioTimeout = 2 * time.Second
	engines := testEngines(t)
	ms, err := OpenMarketState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, shutdown := startServer(t, engines, WithIOTimeout(ioTimeout), WithMarketState(ms))
	defer shutdown()

	tmpl := engines["titanic"].SessionImperfect()
	hello := func(target float64) wire.ClientHello {
		return wire.ClientHello{Market: "titanic", Mode: wire.ModeImperfect, Imperfect: &wire.ImperfectHello{
			Seed: 3, Target: target, ExplorationRounds: imperfectTestParams.ExplorationRounds,
		}}
	}
	// A checkpoint pinned to exactly the resume hello's parameters, but with
	// no estimator weights: it passes the match and fails the restore.
	ms.book("titanic").Save("broken-1", &core.SellerCheckpoint{Round: 3, Config: core.EstimatorSellerConfig{
		Seed: 3, Target: tmpl.TargetGain, EpsData: tmpl.EpsData,
		Params: core.ImperfectParams{ExplorationRounds: imperfectTestParams.ExplorationRounds},
	}})
	resume := hello(tmpl.TargetGain)
	resume.Imperfect.ClientID, resume.Imperfect.ResumeRound = "broken-1", 3

	opens := []struct {
		name string
		ch   wire.ClientHello
	}{
		{"target 0", hello(0)},
		{"target -1", hello(-1)},
		{"target +Inf", hello(math.Inf(1))},
		{"unrestorable checkpoint", resume},
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := wire.OpenMux(conn, wire.CodecBinary, wire.ClientHello{Market: "titanic", ListOnly: true}, ioTimeout)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	defer mc.Close()
	before := srv.Metrics()
	for _, o := range opens {
		start := time.Now()
		s, _, err := mc.Open(context.Background(), o.ch, ioTimeout)
		if err == nil {
			s.Close()
			t.Fatalf("%s: session opened", o.name)
		}
		if took := time.Since(start); !errors.Is(err, ErrRejected) || took > ioTimeout/4 {
			t.Fatalf("%s: err = %v after %v; want ErrRejected well inside the %v IO timeout", o.name, err, took, ioTimeout)
		}
	}
	after := srv.Metrics()
	if after.Rejected != before.Rejected+uint64(len(opens)) || after.Sessions != before.Sessions || after.Failed != before.Failed {
		t.Fatalf("metrics %+v -> %+v: want Rejected up by %d, Sessions and Failed unchanged", before, after, len(opens))
	}
}
