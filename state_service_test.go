package vflmarket

// End-to-end tests of the durable market state subsystem through the
// public API: crash-restart session resume (the PR's acceptance scenario
// — kill the server mid-market, restart it on the same state directory,
// and the reconnecting identified buyer continues bit-identically),
// warm-store valuation (a restarted engine prices its catalog from the
// persisted memo with zero new VFL trainings), Paillier key rotation that
// survives a restart, admission control once every handshake slot is
// taken, and cold boot over corrupt snapshots.
//
// Set VFLMARKET_STATE_DIR to pin the state directories to a shared
// location across runs: CI runs this file twice against one directory, so
// the second pass exercises every path warm. Every assertion here holds
// on both a cold and a pre-populated directory.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stateTestDir resolves this test's durable state directory: a per-test
// subdirectory of VFLMARKET_STATE_DIR when set (shared across runs — the
// CI cold/warm discipline), a throwaway TempDir otherwise.
func stateTestDir(t *testing.T) string {
	t.Helper()
	if base := os.Getenv("VFLMARKET_STATE_DIR"); base != "" {
		dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// captureListener records every accepted connection so a test can sever
// them all at once — the "kill -9 the server" stand-in that leaves
// sessions dead mid-flight instead of draining them.
type captureListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *captureListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *captureListener) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestServiceStateCrashRestartResumesBitIdentical is the acceptance
// scenario: an identified imperfect buyer bargains against a state-bound
// server; mid-market the server is killed (every live connection severed)
// and a new server process — simulated by a fresh MarketState over the
// same directory — comes back on the same address. The client's
// auto-resume redials, the restarted server restores the buyer's
// estimator checkpoint from disk, and the finished session is
// bit-identical — trace, outcome, both MSE learning curves — to an
// uninterrupted in-process run with the same seed.
func TestServiceStateCrashRestartResumesBitIdentical(t *testing.T) {
	dir := stateTestDir(t)
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 83
	params := imperfectTestParams
	cfg := engine.SessionImperfect()
	cfg.Seed = seed
	want, err := engine.BargainImperfectWith(context.Background(), cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rounds) < 4 {
		t.Fatalf("reference session too short to cut: %d rounds", len(want.Rounds))
	}
	cut := want.Rounds[len(want.Rounds)/2].Round

	ms1, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	cl := &captureListener{Listener: ln}
	srv1 := NewServer(WithMarketState(ms1))
	if err := srv1.Register("titanic", engine); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ctx1, cl) }()
	defer cancel1()

	// The kill fires from the client's round observer the first time the
	// session reaches the cut round: sever every server-side connection,
	// wait out the old server's drain-and-flush, then bring a fresh server
	// — fresh MarketState over the same directory, same engine config,
	// same address — back up before the client's retry budget runs out.
	type restartResult struct {
		srv      *Server
		shutdown func()
		err      error
	}
	restarted := make(chan restartResult, 1)
	var once sync.Once
	kill := func() {
		once.Do(func() {
			go func() {
				cancel1()
				cl.closeAll()
				<-done1
				res := restartResult{}
				defer func() { restarted <- res }()
				ms2, err := OpenMarketState(dir)
				if err != nil {
					res.err = err
					return
				}
				srv2 := NewServer(WithMarketState(ms2))
				if err := srv2.Register("titanic", engine); err != nil {
					res.err = err
					return
				}
				ln2, err := net.Listen("tcp", addr)
				if err != nil {
					res.err = err
					return
				}
				ctx2, cancel2 := context.WithCancel(context.Background())
				done2 := make(chan error, 1)
				go func() { done2 <- srv2.Serve(ctx2, ln2) }()
				res.srv = srv2
				res.shutdown = func() {
					cancel2()
					select {
					case <-done2:
					case <-time.After(10 * time.Second):
						t.Error("restarted server did not shut down")
					}
				}
			}()
		})
	}

	client, err := Dial(context.Background(), addr,
		WithIdentity("buyer-1"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	obs := ObserverFuncs{Round: func(rec RoundRecord) {
		if rec.Round == cut {
			kill()
		}
	}}
	got, err := client.BargainImperfect(context.Background(),
		BargainOptions{Seed: seed, Observers: []RoundObserver{obs}})
	if err != nil {
		t.Fatalf("resumed session failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed session diverges from uninterrupted run:\nresumed: %+v\nwant:    %+v", got, want)
	}

	res := <-restarted
	if res.err != nil {
		t.Fatalf("restart: %v", res.err)
	}
	defer res.shutdown()
	mm := res.srv.MarketMetrics()["titanic"]
	if mm.ResumedSessions < 1 {
		t.Fatalf("restarted server granted %d resumes, want >= 1", mm.ResumedSessions)
	}
	if mm.CheckpointedClients < 1 {
		t.Fatalf("restarted server holds %d checkpointed clients, want >= 1", mm.CheckpointedClients)
	}
	if res.srv.State().restoredCheckpoints() < 1 {
		t.Fatal("restarted server resumed without loading a checkpoint from disk")
	}
}

// TestServiceStateWarmOracleZeroTrainings proves the valuation-cache leg
// of the acceptance criteria: an engine bound to a state directory that
// already holds its oracle's memo prices its entire catalog — the first
// post-restart valuations — from the preloaded memo, with zero new VFL
// trainings, and bundle for bundle identically to the cold run.
func TestServiceStateWarmOracleZeroTrainings(t *testing.T) {
	dir := stateTestDir(t)
	build := func(ms *MarketState) *Engine {
		t.Helper()
		e, err := NewEngineFromConfig(Config{Dataset: "titanic", Scale: 0.2, Seed: 7, State: ms})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ms1, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := build(ms1)
	m1 := e1.OracleMetrics()
	if m1.CachedGains == 0 {
		t.Fatal("real-gain engine built with an empty valuation memo")
	}
	if m1.Trainings == 0 && m1.Restored == 0 {
		t.Fatal("engine neither trained nor restored — where did the gains come from?")
	}
	if err := e1.FlushState(); err != nil {
		t.Fatal(err)
	}

	// A fresh MarketState over the same directory is the restarted process.
	ms2, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := build(ms2)
	m2 := e2.OracleMetrics()
	if m2.Trainings != 0 {
		t.Fatalf("warm engine trained %d VFL courses, want 0 (restored %d of %d memoized gains)",
			m2.Trainings, m2.Restored, m1.CachedGains)
	}
	if m2.Restored == 0 {
		t.Fatal("warm engine restored nothing from the store")
	}
	c1, c2 := e1.Catalog(), e2.Catalog()
	if c1.Len() != c2.Len() {
		t.Fatalf("catalog sizes diverge: %d vs %d", c1.Len(), c2.Len())
	}
	for id := 0; id < c1.Len(); id++ {
		if c1.Gain(id) != c2.Gain(id) {
			t.Fatalf("bundle %d priced differently warm: %v vs %v", id, c1.Gain(id), c2.Gain(id))
		}
	}

	// A second engine on the same handle shares the oracle outright — the
	// registry's key covers dataset, seed, and config — so it also builds
	// with zero trainings.
	e3 := build(ms2)
	if m3 := e3.OracleMetrics(); m3.Trainings != 0 {
		t.Fatalf("registry-shared engine trained %d courses, want 0", m3.Trainings)
	}
}

// TestServiceStateKeyRotation rotates a state-bound secure market's key:
// the new modulus is what sessions dialed afterwards are announced and
// settle under, and what a server restarted on a fresh handle over the
// directory re-announces. A memory-only secure market rotates too.
func TestServiceStateKeyRotation(t *testing.T) {
	dir := stateTestDir(t)
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"titanic": engine}
	// announced dials addr and settles one session, returning the modulus
	// the session was announced.
	announced := func(addr string) []byte {
		t.Helper()
		client, err := Dial(context.Background(), addr,
			WithSession(engine.Session()), WithGains(engine.CatalogGains()))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if !client.Secure() {
			t.Fatal("secure market announced a cleartext hello")
		}
		if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 23}); err != nil {
			t.Fatalf("secure session: %v", err)
		}
		return client.hello.PubN
	}

	ms, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, shutdown := startServer(t, engines,
		WithMarketState(ms), WithSecureSettlement(128), WithEagerSecureKeys())
	boot := announced(addr)
	rotated, err := srv.RotateMarketKey("titanic")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rotated, boot) {
		t.Fatal("rotation kept the boot modulus")
	}
	if !bytes.Equal(announced(addr), rotated) {
		t.Fatal("a session dialed after rotation was not announced the rotated modulus")
	}
	shutdown()

	ms2, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, addr2, shutdown2 := startServer(t, engines,
		WithMarketState(ms2), WithSecureSettlement(128), WithEagerSecureKeys())
	defer shutdown2()
	if !bytes.Equal(announced(addr2), rotated) {
		t.Fatal("restarted server does not announce the rotated modulus")
	}

	mem, addrMem, shutdownMem := startServer(t, engines, WithSecureSettlement(128))
	defer shutdownMem()
	bootMem := announced(addrMem)
	rotatedMem, err := mem.RotateMarketKey("")
	if err != nil {
		t.Fatalf("memory-only secure market cannot rotate: %v", err)
	}
	if bytes.Equal(rotatedMem, bootMem) || !bytes.Equal(announced(addrMem), rotatedMem) {
		t.Fatal("memory-only rotation did not change the announced modulus")
	}
}

// TestServiceStateBusyAdmission fills a one-worker server's admission
// slots with 1+backlog half-open handshakes and checks the next connection
// is refused with the typed busy envelope — surfaced as ErrServerBusy,
// counted in ServerMetrics.Busy, and distinct from a protocol rejection.
func TestServiceStateBusyAdmission(t *testing.T) {
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines, WithWorkers(1))
	defer shutdown()

	// Each parked connection sends the preamble and then goes silent,
	// holding its slot in the handshake until the IO timeout.
	defer parkHandshakes(t, srv, addr, 1+backlog)()

	_, err := Dial(context.Background(), addr)
	if err == nil {
		t.Fatal("dial against a saturated server succeeded, want busy refusal")
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("saturated dial failed with %v, want ErrServerBusy", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Fatalf("busy refusal should not read as a protocol rejection: %v", err)
	}
	if m := srv.Metrics(); m.Busy < 1 {
		t.Fatalf("ServerMetrics.Busy = %d, want >= 1", m.Busy)
	}
}

// TestServiceStateCorruptSnapshotsBootCold plants garbage where the store
// keeps estimator checkpoints, Paillier keys, and oracle memos, then
// boots over it: every corrupt snapshot is quietly a miss — the key
// regenerates, the checkpoint book reports no resumable state, and a
// fresh session over the directory runs bit-identical to in-process.
func TestServiceStateCorruptSnapshotsBootCold(t *testing.T) {
	dir := stateTestDir(t)
	for _, name := range []string{
		"estimators/titanic/buyer-1.snap",
		"keys/titanic.snap",
		"oracle/0000000000000000000000000000.snap",
	} {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("definitely not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := OpenMarketState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.book("titanic").Load("buyer-1"); ok {
		t.Fatal("corrupt checkpoint loaded as valid")
	}

	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}

	// A secure server over the corrupt key record: the load is refused,
	// a fresh key generates, and a settled session works end to end.
	srvSec := NewServer(WithMarketState(ms), WithSecureSettlement(128), WithEagerSecureKeys())
	if err := srvSec.Register("titanic", engine); err != nil {
		t.Fatal(err)
	}
	lnSec, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctxSec, cancelSec := context.WithCancel(context.Background())
	doneSec := make(chan error, 1)
	go func() { doneSec <- srvSec.Serve(ctxSec, lnSec) }()
	defer func() { cancelSec(); <-doneSec }()
	clientSec, err := Dial(context.Background(), lnSec.Addr().String(),
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	defer clientSec.Close()
	if !clientSec.Secure() {
		t.Fatal("server over a corrupt key record did not come up secure")
	}
	if _, err := clientSec.Bargain(context.Background(), BargainOptions{Seed: 101}); err != nil {
		t.Fatalf("secure session after cold key boot: %v", err)
	}

	// A clear server over the corrupt checkpoint: the identified buyer
	// starts fresh — no resume, no error — and plays bit-identically to
	// the in-process run.
	srv := NewServer(WithMarketState(ms))
	if err := srv.Register("titanic", engine); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	client, err := Dial(context.Background(), ln.Addr().String(),
		WithIdentity("buyer-1"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(imperfectTestParams),
	)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 29
	got, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: seed})
	if err != nil {
		t.Fatalf("fresh session over corrupt state: %v", err)
	}
	cfg := engine.SessionImperfect()
	cfg.Seed = seed
	want, err := engine.BargainImperfectWith(context.Background(), cfg, imperfectTestParams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold-boot session diverges from in-process run")
	}
	if mm := srv.MarketMetrics()["titanic"]; mm.ResumedSessions != 0 {
		t.Fatalf("cold boot granted %d resumes, want 0", mm.ResumedSessions)
	}
}

// restoredCheckpoints counts the estimator checkpoints loaded from disk
// across every market book — the sessions a restarted server can resume
// without re-exploring.
func (m *MarketState) restoredCheckpoints() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.books {
		n += b.restoredCount()
	}
	return n
}

func (b *ckptBook) restoredCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restored
}
