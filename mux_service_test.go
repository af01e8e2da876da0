package vflmarket

// End-to-end tests of the multiplexed wire through the public API:
// single-dial clients whose handshake doubles as the listing probe, batch
// bargaining multiplexed over pooled connections bit-identical to the
// in-process engine across connection counts and encodings, round
// pipelining (one client write per steady-state round), per-session
// teardown that leaves sibling sessions untouched, eviction severing
// exactly the evicted market's streams on a shared connection, the
// handshake grammar, the pooled buffers of connections that end at their
// hello, and a forced live migration mid-batch. All of it runs under -race
// in CI.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/wire"
)

// countingListener counts accepted connections, so tests can pin down how
// many TCP dials a client path really makes.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// startCountingServer is startServer over a counting listener.
func startCountingServer(t *testing.T, engines map[string]*Engine, opts ...ServerOption) (*countingListener, string, func()) {
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
	cl := &countingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, cl) }()
	shutdown := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}
	return cl, ln.Addr().String(), shutdown
}

// TestServiceDialSingleConnection: Dial makes exactly one TCP connection —
// the mux handshake is the probe — and everything that follows (sessions,
// stats) reuses it. The v5 client paid one throwaway probe dial plus one
// dial per session and another per Stats call.
func TestServiceDialSingleConnection(t *testing.T) {
	engines := testEngines(t)
	ln, addr, shutdown := startCountingServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := Dial(context.Background(), addr,
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("Dial cost %d TCP connections, want exactly 1", n)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		got, err := client.Bargain(context.Background(), BargainOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Bargain(context.Background(), BargainOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pooled-conn result diverges from engine", seed)
		}
	}
	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("3 sessions + stats cost %d TCP connections, want the 1 from Dial", n)
	}
}

// TestServiceBatchOverMuxBitIdentity is the tentpole acceptance scenario:
// Client.BargainBatch fans its specs over pooled multiplexed connections,
// and the result slice is bit-identical to Engine.BargainBatch — same seed
// derivation, same sessions — whether the batch rode one connection or
// four, over the Client's bin encoding or the framed gob the server keeps
// for other callers.
func TestServiceBatchOverMuxBitIdentity(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines, WithWorkers(4))
	defer shutdown()

	engine := engines["titanic"]
	specs := make([]BatchSpec, 8)
	specs[3].Seed = 99 // one explicit per-spec seed exercises the override path
	opts := BatchOptions{Workers: 4, Seed: 7}
	want, err := engine.BargainBatch(context.Background(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, conns := range []int{1, 4} {
		t.Run(fmt.Sprintf("%s/conns=%d", wire.CodecBinary, conns), func(t *testing.T) {
			client, err := Dial(context.Background(), addr,
				WithConnsPerAddr(conns),
				WithSession(engine.Session()),
				WithGains(engine.CatalogGains()),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			got, err := client.BargainBatch(context.Background(), specs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch over %d conns diverges from Engine.BargainBatch", conns)
			}
		})
	}

	// Framed gob, which the Client no longer speaks but wire.OpenMux
	// callers may name, plays the same batch bit-identically.
	for _, conns := range []int{1, 4} {
		t.Run(fmt.Sprintf("%s/conns=%d", wire.CodecGob, conns), func(t *testing.T) {
			rt, err := dialRawTransport(addr, "titanic", conns)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			got, err := core.Batch(context.Background(), len(specs), opts.Workers,
				func(ctx context.Context, i int) (*Result, error) {
					cfg := engine.Session()
					if seedIsSet(specs[i].Seed) {
						cfg.Seed = specs[i].Seed
					} else if !seedIsSet(cfg.Seed) {
						cfg.Seed = rng.DeriveSeed(opts.Seed, uint64(i))
					}
					return rt.bargain(ctx, cfg, engine.CatalogGains(), -1)
				})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gob batch over %d conns diverges from Engine.BargainBatch", conns)
			}
		})
	}
}

// rawTransport plays perfect sessions over framed gob, multiplexed over a
// pool of conns connections: the encoding the Client no longer speaks but
// the server serves for wire.OpenMux callers that name it.
type rawTransport struct {
	market string
	mcs    []*wire.MuxConn
	next   atomic.Uint64
}

func dialRawTransport(addr, market string, conns int) (*rawTransport, error) {
	rt := &rawTransport{market: market}
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			rt.Close()
			return nil, err
		}
		mc, _, err := wire.OpenMux(conn, wire.CodecGob,
			wire.ClientHello{Market: market, ListOnly: true}, 5*time.Second)
		if err != nil {
			conn.Close()
			rt.Close()
			return nil, err
		}
		rt.mcs = append(rt.mcs, mc)
	}
	return rt, nil
}

// bargain plays one session. pool sizes the task party's randomizer pool
// against a secure server exactly as WithClientNoisePool does: 0 is the
// default size, and pool < 0 encrypts inline.
func (rt *rawTransport) bargain(ctx context.Context, cfg SessionConfig, gains GainProvider, pool int) (*Result, error) {
	mc := rt.mcs[rt.next.Add(1)%uint64(len(rt.mcs))]
	s, hello, err := mc.Open(ctx, wire.ClientHello{Market: rt.market}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer s.CloseClean()
	tc := &wire.TaskClient{Session: cfg, Gains: gains}
	if hello.Secure && pool >= 0 {
		pk := secure.NewPublicKey(new(big.Int).SetBytes(hello.PubN))
		tc.Noise = secure.NewNoiseSource(pk, pool, 0, rand.Reader)
		defer tc.Noise.Close()
	}
	return tc.BargainCodec(ctx, s, hello)
}

func (rt *rawTransport) Close() {
	for _, mc := range rt.mcs {
		mc.Close()
	}
}

// TestServiceImperfectBatchMatchesEngineLoop: BargainImperfectBatch plays
// the same sessions a loop of Engine.BargainImperfectWith would under the
// batch seed convention (template session, per-spec DeriveSeed), with
// every ImperfectResult — trace, outcome, both MSE curves — bit-identical.
func TestServiceImperfectBatchMatchesEngineLoop(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines, WithWorkers(4))
	defer shutdown()

	engine := engines["titanic"]
	const n = 3
	const master = 5
	specs := make([]BatchSpec, n)
	want := make([]*ImperfectResult, n)
	for i := 0; i < n; i++ {
		cfg := engine.SessionImperfect()
		cfg.Seed = rng.DeriveSeed(master, uint64(i))
		res, err := engine.BargainImperfectWith(context.Background(), cfg, imperfectTestParams)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.BargainImperfectBatch(context.Background(), specs,
		BatchOptions{Workers: n, Seed: master})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imperfect batch diverges from engine loop:\nwire:   %+v\nengine: %+v", got, want)
	}
}

// TestServiceMuxCancelOneSessionLeavesSibling: cancelling one session's
// context tears down only that session's stream — a sibling session
// mid-game on the same pooled connection finishes bit-identically, and the
// connection stays warm for further sessions.
func TestServiceMuxCancelOneSessionLeavesSibling(t *testing.T) {
	engines := testEngines(t)
	ln, addr, shutdown := startCountingServer(t, engines)
	defer shutdown()

	engine := engines["titanic"]
	client, err := dialImperfect(addr, "titanic", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Session A: imperfect, cancelled from its own observer mid-exploration.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	started := make(chan struct{})
	var startedOnce sync.Once
	obsA := ObserverFuncs{Round: func(rec RoundRecord) {
		startedOnce.Do(func() { close(started) })
		if rec.Round == 3 {
			cancelA()
		}
	}}
	errA := make(chan error, 1)
	go func() {
		_, err := client.BargainImperfect(ctxA, BargainOptions{Seed: 9, Observers: []RoundObserver{obsA}})
		errA <- err
	}()
	<-started

	// Session B: a full perfect game on the same connection, concurrent
	// with A's teardown.
	cfgB := engine.Session()
	cfgB.Seed = 21
	got, err := client.BargainWith(context.Background(), cfgB, engine.CatalogGains())
	if err != nil {
		t.Fatalf("sibling session failed: %v", err)
	}
	want, err := engine.BargainWith(context.Background(), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sibling session diverges from engine while a stream was cancelled")
	}
	if err := <-errA; err == nil {
		t.Fatal("cancelled session returned nil error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session error = %v, want context.Canceled", err)
	}

	// The shared connection survived the cancel: another session runs on
	// it, with no new TCP dial.
	if _, err := client.BargainWith(context.Background(), cfgB, engine.CatalogGains()); err != nil {
		t.Fatalf("session after cancel failed: %v", err)
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("cancel forced a re-dial: %d TCP connections, want 1", n)
	}
}

// TestServiceEvictionSeversOnlyAffectedMarket drives two markets' sessions
// over ONE multiplexed connection at the wire level, then evicts one
// market (the live-migration primitive): exactly the evicted market's
// stream is severed with the retryable busy notice, the sibling market's
// session completes bit-identically, and the connection keeps serving.
func TestServiceEvictionSeversOnlyAffectedMarket(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mc, hello, err := wire.OpenMux(conn, wire.CodecGob,
		wire.ClientHello{Market: "titanic", ListOnly: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if hello.Market != "titanic" || len(hello.Markets) != 2 {
		t.Fatalf("probe hello = %+v", hello)
	}

	// Stream 1: a titanic session opened and left idle mid-game — the
	// server is waiting for its first Quote when the eviction lands.
	s1, _, err := mc.Open(context.Background(), wire.ClientHello{Market: "titanic"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Stream 2: a full credit session on the same connection.
	credit := engines["credit"]
	runCredit := func(seed uint64) *Result {
		t.Helper()
		s2, h2, err := mc.Open(context.Background(), wire.ClientHello{Market: "credit"}, 10*time.Second)
		if err != nil {
			t.Fatalf("credit open: %v", err)
		}
		cfg := credit.Session()
		cfg.Seed = seed
		tc := &wire.TaskClient{Session: cfg, Gains: credit.CatalogGains()}
		res, err := tc.BargainCodec(context.Background(), s2, h2)
		if err != nil {
			t.Fatalf("credit session: %v", err)
		}
		s2.CloseClean()
		return res
	}
	got := runCredit(31)
	cfg := credit.Session()
	cfg.Seed = 31
	want, err := credit.BargainWith(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("credit session over shared conn diverges from engine")
	}

	// Evict titanic: only stream 1 is severed — with KindBusy, the
	// retryable notice, so pooled clients back off and follow the
	// migration redirect.
	if err := srv.Unregister("titanic"); err != nil {
		t.Fatal(err)
	}
	e, err := s1.Recv()
	if err != nil {
		t.Fatalf("evicted stream recv: %v", err)
	}
	if e.Kind != wire.KindBusy {
		t.Fatalf("evicted stream got %v, want KindBusy", e.Kind)
	}
	s1.CloseClean()

	// The connection is untouched: credit still bargains on it, and a new
	// titanic open is now a terminal rejection, not a dead conn.
	runCredit(32)
	if _, _, err := mc.Open(context.Background(), wire.ClientHello{Market: "titanic"}, 5*time.Second); err == nil {
		t.Fatal("open on evicted market succeeded")
	} else if mc.Err() != nil {
		t.Fatalf("titanic rejection killed the shared conn: %v", mc.Err())
	}
}

// TestServicePipelinedRoundSingleWrite pins the 1-RTT round: the client
// coalesces each round's Settle with the next round's Quote into one
// buffered write, so the client-side write count is about one per round —
// a lockstep exchange pays two (quote flush + settle flush). The session
// still finishes bit-identical to the engine.
func TestServicePipelinedRoundSingleWrite(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()
	engine := engines["titanic"]

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var writes atomic.Int64
	conn := &countingConn{Conn: raw, writes: &writes}
	mc, _, err := wire.OpenMux(conn, wire.CodecGob,
		wire.ClientHello{Market: "titanic", ListOnly: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	params := imperfectTestParams.WithDefaults()
	cfg := engine.SessionImperfect()
	cfg.Seed = 9
	s, hello, err := mc.Open(context.Background(), wire.ClientHello{
		Market: "titanic",
		Mode:   wire.ModeImperfect,
		Imperfect: &wire.ImperfectHello{
			Seed: cfg.Seed, Target: cfg.TargetGain,
			ExplorationRounds: params.ExplorationRounds,
			ReplaySteps:       params.ReplaySteps,
		},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := writes.Load() // handshake + open traffic
	tc := &wire.TaskClient{Session: cfg, Gains: engine.CatalogGains()}
	res, err := tc.BargainImperfectCodec(context.Background(), s, hello, params)
	if err != nil {
		t.Fatal(err)
	}
	s.CloseClean()

	want, err := engine.BargainImperfectWith(context.Background(), cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("pipelined session diverges from engine")
	}
	rounds := int64(len(res.Rounds))
	if rounds < int64(params.ExplorationRounds) {
		t.Fatalf("session too short to measure: %d rounds", rounds)
	}
	sessionWrites := writes.Load() - base
	// One write per round plus a small constant (final settle drain,
	// teardown flush). A lockstep exchange's floor is two per round.
	if sessionWrites > rounds+5 {
		t.Fatalf("%d rounds took %d client writes, want <= rounds+5 (pipelining lost)", rounds, sessionWrites)
	}
}

// countingConn counts Write calls — the syscall-level view of how many
// segments a session pushes.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServiceVersionMatrix pins the handshake grammar: "VFLM/6 bin mux"
// and "VFLM/6 gob mux" are answered with a Hello; every serial preamble of
// the retired one-session wire (v2–v6, gob or JSON), a mux token on any
// other version, and any other envelope encoding are refused at the
// handshake — the server hangs up without a reply.
func TestServiceVersionMatrix(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines)
	defer shutdown()

	for _, codec := range []string{wire.CodecBinary, wire.CodecGob} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		mc, hello, err := wire.OpenMux(conn, codec, wire.ClientHello{Market: "titanic", ListOnly: true}, 5*time.Second)
		if err != nil {
			t.Fatalf("VFLM/6 %s mux: %v", codec, err)
		}
		if hello.Market != "titanic" || hello.Version != wire.ProtocolVersion {
			t.Fatalf("VFLM/6 %s mux: hello = %+v, want a titanic v%d Hello", codec, hello, wire.ProtocolVersion)
		}
		mc.Close()
	}

	var refused []string
	for v := 2; v <= 6; v++ {
		for _, codec := range []string{"gob", "json"} {
			refused = append(refused, fmt.Sprintf("VFLM/%d %s\n", v, codec))
		}
	}
	refused = append(refused,
		"VFLM/5 bin mux\n",  // mux on a retired version
		"VFLM/7 bin mux\n",  // future version
		"VFLM/6 json mux\n", // JSON is no envelope encoding of the mux
		"VFLM/6 xml mux\n",  // unknown encoding
	)
	before := srv.Metrics().Rejected
	for _, preamble := range refused {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(conn, preamble)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
			t.Fatalf("preamble %q: read %d bytes, err %v; want the server to hang up", preamble, n, err)
		}
		conn.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Rejected-before < uint64(len(refused)) {
		if time.Now().After(deadline) {
			t.Fatalf("rejected %d of %d refused preambles", srv.Metrics().Rejected-before, len(refused))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceHelloOnlyConnsRecyclePooledBuffers pins the accept side's
// codec ownership rule: a connection that ends at its hello — a stats
// probe, or an open the server refuses, as it does a redirect — returns
// its framed codec's 32 KiB bufio reader and writer to their pools, so
// each such exchange costs a few KiB instead of two fresh buffers. The
// parent commit dropped both buffers on these paths and fails this test
// (about 71 KB per stats probe, 68 KB per refused open).
func TestServiceHelloOnlyConnsRecyclePooledBuffers(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a random quarter of its Puts")
	}
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	const n = 200
	const budget = 32 << 10 // one pooled buffer; a leak costs two per conn
	perConn := func(name string, exchange func() error) {
		t.Helper()
		if err := exchange(); err != nil { // warm the pools
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%s: %d bytes allocated per connection", name, per)
		if per >= budget {
			t.Fatalf("%s: %d bytes allocated per connection, want < %d", name, per, budget)
		}
	}
	perConn("stats probe", func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = wire.FetchStats(context.Background(), conn, 5*time.Second)
		return err
	})
	perConn("refused open", func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		_, _, err = wire.OpenMux(conn, wire.CodecBinary, wire.ClientHello{Market: "nasdaq", ListOnly: true}, 5*time.Second)
		if !errors.Is(err, ErrRejected) {
			return fmt.Errorf("open of an unknown market: %v, want ErrRejected", err)
		}
		return nil
	})
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestClusterBatchSurvivesMidBatchMigration forces a live migration while
// an imperfect batch is in flight over pooled connections: every spec's
// session — severed or not — finishes bit-identically to an unmigrated
// engine loop, with zero failed sessions anywhere in the fleet.
func TestClusterBatchSurvivesMidBatchMigration(t *testing.T) {
	engine := clusterEngine(t)
	params := imperfectTestParams
	const n = 3
	const master = 17

	// Reference: the batch's sessions, uninterrupted, in-process.
	want := make([]*ImperfectResult, n)
	for i := 0; i < n; i++ {
		cfg := engine.SessionImperfect()
		cfg.Seed = rng.DeriveSeed(master, uint64(i))
		res, err := engine.BargainImperfectWith(context.Background(), cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	if len(want[1].Rounds) < 4 {
		t.Fatalf("reference session too short to cut: %d rounds", len(want[1].Rounds))
	}
	cut := want[1].Rounds[len(want[1].Rounds)/2].Round

	cluster := startCluster(t, 2, stateTestDir(t), "titanic")
	from := cluster.Markets()["titanic"]
	to := 1 - from

	// The migration fires from spec 1's observer the first time it reaches
	// the cut round — with the whole batch live on the source shard.
	migrated := make(chan error, 1)
	var once sync.Once
	specs := make([]BatchSpec, n)
	specs[1].Observer = ObserverFuncs{Round: func(rec RoundRecord) {
		if rec.Round == cut {
			once.Do(func() {
				go func() {
					migrated <- cluster.Migrate(context.Background(), "titanic", to)
				}()
			})
		}
	}}

	client, err := cluster.Dial(context.Background(), "titanic",
		WithIdentity("fleet"),
		WithConnsPerAddr(2),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.BargainImperfectBatch(context.Background(), specs,
		BatchOptions{Workers: n, Seed: master})
	if err != nil {
		t.Fatalf("migrated batch failed: %v", err)
	}
	if merr := <-migrated; merr != nil {
		t.Fatalf("migration: %v", merr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch results diverge from unmigrated engine loop after live migration")
	}
	for id := 0; id < 2; id++ {
		srv, err := cluster.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		if m := srv.Metrics(); m.Failed != 0 {
			t.Fatalf("shard %d failed %d sessions, want 0", id, m.Failed)
		}
	}
	if cluster.Markets()["titanic"] != to {
		t.Fatalf("market still owned by shard %d, want %d", cluster.Markets()["titanic"], to)
	}
}
