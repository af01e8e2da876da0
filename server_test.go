package vflmarket

// End-to-end tests of the public market service: one multi-market Server
// process, concurrent clients, cancellation, malformed
// peers, and the bit-identical-to-in-process contract. All of it runs
// under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// testEngines builds the two synthetic market engines every service test
// shares (small scale keeps construction fast).
func testEngines(t testing.TB) map[string]*Engine {
	t.Helper()
	engines := map[string]*Engine{}
	for _, name := range []string{"titanic", "credit"} {
		e, err := NewEngine(name, WithSynthetic(true), WithScale(0.25), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = e
	}
	return engines
}

// startServer serves the engines on a loopback listener and returns the
// address plus a shutdown function that stops the server and waits for
// Serve to return.
func startServer(t testing.TB, engines map[string]*Engine, opts ...ServerOption) (*Server, string, func()) {
	t.Helper()
	srv := NewServer(opts...)
	for _, name := range []string{"titanic", "credit"} {
		if e, ok := engines[name]; ok {
			if err := srv.Register(name, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	shutdown := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}
	return srv, ln.Addr().String(), shutdown
}

// openRawSession dials addr over the binary mux and opens one session with
// ch, for tests that drive the envelope sequence by hand. The caller closes
// both.
func openRawSession(t *testing.T, addr string, ch wire.ClientHello) (*wire.MuxConn, *wire.MuxSession) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := wire.OpenMux(conn, wire.CodecBinary, wire.ClientHello{Market: ch.Market, ListOnly: true}, 5*time.Second)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	s, _, err := mc.Open(context.Background(), ch, 5*time.Second)
	if err != nil {
		mc.Close()
		t.Fatal(err)
	}
	return mc, s
}

// TestServiceMultiMarketConcurrentClients is the acceptance scenario: one
// server, two named markets, eight concurrent clients split across
// markets, every result bit-identical to the in-process engine run with
// the same seed.
func TestServiceMultiMarketConcurrentClients(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		market := "titanic"
		if i%2 == 1 {
			market = "credit"
		}
		seed := uint64(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := engines[market]
			client, err := Dial(context.Background(), addr,
				WithMarket(market),
				WithSession(engine.Session()),
				WithGains(engine.CatalogGains()),
			)
			if err != nil {
				errs <- err
				return
			}
			got, err := client.Bargain(context.Background(), BargainOptions{Seed: seed})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", market, err)
				return
			}
			want, err := engine.Bargain(context.Background(), BargainOptions{Seed: seed})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("%s seed %d: networked result diverges from in-process:\nwire:   %+v\nengine: %+v",
					market, seed, got, want)
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
}

// TestServiceSecureSettlementMatchesClearPayment runs the Paillier
// passthrough end to end: the decrypted server-side payment must match the
// client's cleartext expectation.
func TestServiceSecureSettlementMatchesClearPayment(t *testing.T) {
	engines := testEngines(t)
	events := make(chan SessionEvent, 4)
	_, addr, shutdown := startServer(t, engines,
		WithSecureSettlement(128),
		WithSessionHook(func(ev SessionEvent) { events <- ev }),
	)
	defer shutdown()

	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	if !client.Secure() {
		t.Fatal("server did not announce secure settlement")
	}
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	var ev SessionEvent
	for ev.Summary == nil { // skip the Dial probe's listing event
		select {
		case ev = <-events:
		case <-time.After(5 * time.Second):
			t.Fatal("no session event")
		}
	}
	if !ev.Summary.Closed {
		t.Fatal("server did not record the close")
	}
	if diff := ev.Summary.Payment - res.Final.Payment; diff > 1e-5 || diff < -1e-5 {
		t.Fatalf("decrypted payment %v vs client expectation %v", ev.Summary.Payment, res.Final.Payment)
	}
}

// TestServiceCancellationMidSession cancels the context from a round
// observer: the session must stop between rounds with the context's error,
// and the server must survive to serve the next client.
func TestServiceCancellationMidSession(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	obs := ObserverFuncs{Round: func(RoundRecord) {
		rounds++
		if rounds == 1 {
			cancel()
		}
	}}
	_, err = client.Bargain(ctx, BargainOptions{Seed: 7, Observers: []RoundObserver{obs}})
	if err == nil {
		t.Fatal("cancelled session returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The server keeps serving after the aborted session.
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("follow-up session outcome = %v", res.Outcome)
	}
}

// TestServiceMalformedClient feeds the server a valid session open followed
// by a malformed envelope, then raw preamble garbage: both must fail their
// own session cleanly and leave the server serving.
func TestServiceMalformedClient(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	// A client that opens a session correctly and then sends a well-framed
	// Quote envelope with no payload — the session must fail cleanly, not
	// panic the server on a nil dereference.
	mc, s := openRawSession(t, addr, wire.ClientHello{Market: "titanic"})
	if err := s.Send(&wire.Envelope{Kind: wire.KindQuote}); err != nil {
		t.Fatal(err)
	}
	s.CloseClean()
	mc.Close()

	// Raw garbage instead of a preamble.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn2.Close()

	// A healthy client still gets served.
	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Metrics()
		if m.Failed >= 1 && m.Rejected >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want >= 1 failed and >= 1 rejected", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceUnknownMarketAndCodec verifies the fail-fast paths of Dial,
// and that the server hangs up on a mux preamble naming an encoding the mux
// does not speak, JSON included.
func TestServiceUnknownMarketAndCodec(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	if _, err := Dial(context.Background(), addr, WithMarket("nasdaq")); err == nil {
		t.Fatal("dial to unknown market succeeded")
	} else if !strings.Contains(err.Error(), "nasdaq") {
		t.Fatalf("unknown-market error does not name the market: %v", err)
	}
	for _, codec := range []string{"xml", "json"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "VFLM/6 %s mux\n", codec)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
			t.Fatalf("mux preamble naming %q: read %d bytes, err %v; want the server to hang up", codec, n, err)
		}
		conn.Close()
	}

	client, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := client.Markets(); len(got) != 2 {
		t.Fatalf("markets = %v", got)
	}
	if client.Market() != "titanic" {
		t.Fatalf("default market = %q", client.Market())
	}
	if len(client.Listing()) == 0 {
		t.Fatal("empty listing")
	}
	if _, err := client.Bargain(context.Background(), BargainOptions{}); err == nil {
		t.Fatal("Bargain without a session template succeeded")
	}
}

// TestResolveAdmitsOnlyTheServedVersion: the server speaks one protocol
// version, so a hello naming any other is refused with a terminal error
// before its market is looked at.
func TestResolveAdmitsOnlyTheServedVersion(t *testing.T) {
	srv := NewServer()
	if err := srv.Register("titanic", testEngines(t)["titanic"]); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 5, wire.ProtocolVersion, wire.ProtocolVersion + 1} {
		adm, rf := srv.resolve(&wire.ClientHello{Version: v, Market: "titanic", ListOnly: true}, true)
		if v == wire.ProtocolVersion {
			if rf != nil {
				t.Fatalf("version %d refused: %v", v, rf.err)
			}
			if adm == nil || adm.hello == nil {
				t.Fatalf("version %d admitted without a hello", v)
			}
			continue
		}
		if rf == nil || rf.kind != wire.KindError {
			t.Fatalf("version %d admitted (refusal %+v)", v, rf)
		}
	}
}

// TestServiceGracefulShutdown: cancelling the serve context must close the
// listener and return promptly when idle.
func TestServiceGracefulShutdown(t *testing.T) {
	engines := testEngines(t)
	srv := NewServer()
	if err := srv.Register("titanic", engines["titanic"]); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServiceBatchOverWire drives many sessions through one Client from a
// worker pool — the Client is safe for concurrent use because every
// Bargain dials its own connection.
func TestServiceBatchOverWire(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines, WithWorkers(4))
	defer shutdown()

	engine := engines["credit"]
	client, err := Dial(context.Background(), addr,
		WithMarket("credit"), WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = res.Outcome
		}()
	}
	wg.Wait()
	for i, o := range outcomes {
		want, err := engine.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if o != want.Outcome {
			t.Fatalf("seed %d: wire outcome %v vs engine %v", i+1, o, want.Outcome)
		}
	}
}
