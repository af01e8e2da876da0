package wire

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/secure"
)

// testKeys is a memory-only 128-bit Paillier key whose primes generate in
// the background: small and fast, for tests only.
func testKeys(tb testing.TB) *secure.RotatingKey {
	tb.Helper()
	keys, err := secure.PersistedKey(nil, "", rand.Reader, 128, false)
	if err != nil {
		tb.Fatal(err)
	}
	return keys
}

// mustHello resolves the server's announcement, failing the test on a key
// error (only possible on secure servers whose generation failed).
func mustHello(tb testing.TB, s *DataServer) *Hello {
	tb.Helper()
	h, err := s.Hello()
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// buildMarket constructs a deterministic synthetic market shared by the
// tests.
func buildMarket(t testing.TB, seed uint64) (*core.Catalog, core.SessionConfig, core.GainProvider) {
	t.Helper()
	gains := core.NewSyntheticGains(6, 0.2, 0, rng.New(seed))
	cat := core.NewCatalog(6, core.CatalogConfig{Size: 20}, rng.New(seed), gains)
	target, _ := cat.MaxGain()
	rate, base := cat.SuggestInitialPrice()
	cfg := core.SessionConfig{
		U: 1000, Budget: 8, TargetGain: target,
		InitRate: rate, InitBase: base,
		EpsTask: 1e-3, EpsData: 1e-3,
		MaxRounds: 400, Seed: seed,
	}
	return cat, cfg, gains
}

// pipeCodec is one end of a framed CodecBinary connection over net.Pipe.
// Like a mux session it flushes before every blocking receive, which is
// what lets a pipelining client and the server share an unbuffered pipe.
type pipeCodec struct {
	*framedCodec
	conn net.Conn
}

func newPipeCodec(conn net.Conn) pipeCodec {
	fc, _ := newFramedCodec(CodecBinary, bufio.NewReader(conn), conn) // bin never fails
	return pipeCodec{framedCodec: fc, conn: conn}
}

func (c pipeCodec) Recv() (*Envelope, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.framedCodec.Recv()
}

// loopCodec is a framed codec whose sends come back as its own receives.
func loopCodec(t testing.TB, name string) pipeCodec {
	t.Helper()
	var buf bytes.Buffer
	fc, err := newFramedCodec(name, bufio.NewReader(&buf), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return pipeCodec{framedCodec: fc}
}

// served is the server end's view of one piped session.
type served struct {
	sum *SessionSummary
	err error
}

// servePipe runs serve on the server end of a fresh net.Pipe and returns
// the client end. The server end flushes its closing frames and closes
// once serve returns, then reports on the channel.
func servePipe(t testing.TB, serve func(c Codec) (*SessionSummary, error)) (pipeCodec, <-chan served) {
	clientConn, serverConn := net.Pipe()
	t.Cleanup(func() { clientConn.Close() })
	done := make(chan served, 1)
	go func() {
		defer serverConn.Close()
		c := newPipeCodec(serverConn)
		sum, err := serve(c)
		_ = c.Flush()
		done <- served{sum, err}
	}()
	return newPipeCodec(clientConn), done
}

// serveCatalogPipe serves one perfect session of srv on a fresh pipe (see
// servePipe).
func serveCatalogPipe(t testing.TB, srv *DataServer) (pipeCodec, <-chan served) {
	hello := mustHello(t, srv)
	return servePipe(t, func(c Codec) (*SessionSummary, error) { return srv.ServeCodec(c, hello) })
}

// bargainPipe plays one perfect session of client against srv, announced
// with hello, over net.Pipe and returns both sides' views.
func bargainPipe(t *testing.T, srv *DataServer, client *TaskClient, hello *Hello) (*core.Result, served, error) {
	t.Helper()
	c, done := servePipe(t, func(c Codec) (*SessionSummary, error) { return srv.ServeCodec(c, hello) })
	he, err := link{c}.recv(KindHello)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.BargainCodec(context.Background(), c, he.Hello)
	_ = c.Flush() // the closing settlement
	c.conn.Close()
	return res, <-done, err
}

// runSession wires a client and server over net.Pipe and returns both
// sides' views.
func runSession(t *testing.T, secureMode bool, seed uint64) (*core.Result, *SessionSummary) {
	t.Helper()
	cat, cfg, gains := buildMarket(t, seed)
	var keys *secure.RotatingKey
	if secureMode {
		keys = testKeys(t)
	}
	srv := NewDataServer(cat, cfg.EpsData, keys)
	res, srvSide, err := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains}, mustHello(t, srv))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvSide.err != nil {
		t.Fatalf("server: %v", srvSide.err)
	}
	return res, srvSide.sum
}

func TestWireSessionReachesEquilibrium(t *testing.T) {
	res, sum := runSession(t, false, 7)
	if res.Outcome != core.Success {
		t.Fatalf("outcome = %v after %d rounds", res.Outcome, len(res.Rounds))
	}
	if !sum.Closed {
		t.Fatal("server did not record the close")
	}
	if sum.Rounds != len(res.Rounds) {
		t.Fatalf("round mismatch: server %d vs client %d", sum.Rounds, len(res.Rounds))
	}
	if sum.BundleID != res.Final.BundleID {
		t.Fatalf("bundle mismatch: %d vs %d", sum.BundleID, res.Final.BundleID)
	}
	// The settled payment must match Eq. 2 exactly in clear mode.
	if math.Abs(sum.Payment-res.Final.Payment) > 1e-12 {
		t.Fatalf("payment mismatch: %v vs %v", sum.Payment, res.Final.Payment)
	}
}

func TestWireMatchesInProcessEngine(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 9)
	want, err := core.NewSession(cat, cfg).RunPerfect(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runSession(t, false, 9)
	if res.Outcome != want.Outcome {
		t.Fatalf("outcomes differ: wire %v vs engine %v", res.Outcome, want.Outcome)
	}
	if res.Final.BundleID != want.Final.BundleID {
		t.Fatalf("bundles differ: wire %d vs engine %d", res.Final.BundleID, want.Final.BundleID)
	}
	if math.Abs(res.Final.Payment-want.Final.Payment) > 1e-9 {
		t.Fatalf("payments differ: wire %v vs engine %v", res.Final.Payment, want.Final.Payment)
	}
}

func TestWireSecureSettlement(t *testing.T) {
	res, sum := runSession(t, true, 11)
	if res.Outcome != core.Success {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Paillier settlement reproduces the Eq. 2 payment within fixed-point
	// precision; the gain itself never crossed the wire.
	if math.Abs(sum.Payment-res.Final.Payment) > 1e-5 {
		t.Fatalf("secure payment %v vs expected %v", sum.Payment, res.Final.Payment)
	}
}

func TestWireFailDataWhenBudgetTooSmall(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 13)
	cfg.InitRate, cfg.InitBase = 0.2, 0.01
	cfg.Budget = 0.3
	cfg.U = 10
	srv := NewDataServer(cat, cfg.EpsData, nil)
	res, _, err := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains}, mustHello(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.FailData {
		t.Fatalf("outcome = %v, want FailData", res.Outcome)
	}
}

// TestWireOverTCP plays a full session through the real accept path: mux
// handshake over loopback TCP, one stream, DataServer.ServeCodec behind it.
func TestWireOverTCP(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 17)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	hello := mustHello(t, srv)
	done := make(chan served, 1)
	mc, shutdown := startMux(t, 5*time.Second, func(st *MuxStream, _ *ClientHello) {
		sum, err := srv.ServeCodec(st, hello)
		done <- served{sum, err}
	})
	defer shutdown()
	s, opened, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := &TaskClient{Session: cfg, Gains: gains}
	res, err := client.BargainCodec(context.Background(), s, opened)
	if err != nil {
		t.Fatal(err)
	}
	s.CloseClean()
	sum := <-done
	if sum.err != nil {
		t.Fatalf("server: %v", sum.err)
	}
	if res.Outcome != core.Success || !sum.sum.Closed {
		t.Fatalf("TCP session: client %v, server closed=%v", res.Outcome, sum.sum.Closed)
	}
}

func TestServerRejectsInvalidQuote(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 19)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	c, done := serveCatalogPipe(t, srv)
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: -1, Base: 1, High: 2}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Flush()
	if r := <-done; r.err == nil {
		t.Fatal("server accepted an invalid quote")
	}
}

func TestServerRejectsWrongMessageKind(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 23)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	c, done := serveCatalogPipe(t, srv)
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindSettle, Settle: &Settle{}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Flush()
	if r := <-done; r.err == nil {
		t.Fatal("server accepted an out-of-order message")
	}
}

func TestSecureSessionRequiresCiphertext(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 29)
	srv := NewDataServer(cat, cfg.EpsData, testKeys(t))
	c, done := serveCatalogPipe(t, srv)
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	// Settle in clear on a secure session: the server must refuse.
	if err := l.send(&Envelope{Kind: KindSettle, Settle: &Settle{Gain: 0.1, Decision: core.SettleAccept}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Flush()
	if r := <-done; r.err == nil {
		t.Fatal("secure server accepted a cleartext settlement")
	}
}

func TestClientValidatesConfig(t *testing.T) {
	_, cfg, gains := buildMarket(t, 31)
	cfg.U = 0.001
	client := &TaskClient{Session: cfg, Gains: gains}
	clientConn, _ := net.Pipe()
	defer clientConn.Close()
	// Validation runs before the first quote, so the unread pipe never blocks.
	if _, err := client.BargainCodec(context.Background(), newPipeCodec(clientConn), &Hello{}); err == nil {
		t.Fatal("client accepted invalid config")
	}
}
