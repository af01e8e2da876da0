package vflmarket

// End-to-end tests of the sharded market fabric through the public API:
// consistent-hash routing with transparent redirects, over-the-wire stats,
// live market migration with an in-flight imperfect session (the PR's
// acceptance scenario — the migrated session completes bit-identically to
// an unmigrated run with zero failed sessions), and the stats-driven
// rebalancer executing a real transfer.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// clusterEngineConfig mirrors the engines the cluster factory builds, so
// tests can run reference sessions against an identically configured
// local engine.
func clusterEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// clusterFactory builds the same titanic engine for every market name —
// markets are named listings; the catalog behind them is the test's
// fixture. The shard's state handle binds the valuation memo when set.
func clusterFactory(market string, state *MarketState) (*Engine, error) {
	cfg := Config{Dataset: "titanic", Synthetic: true, Scale: 0.25, Seed: 11, State: state}
	return NewEngineFromConfig(cfg)
}

// startCluster spins up an n-shard fleet with the shared test factory and
// registers the given markets.
func startCluster(t *testing.T, n int, baseDir string, markets ...string) *Cluster {
	t.Helper()
	c, err := NewCluster(n, baseDir, clusterFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	for _, m := range markets {
		if err := c.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestClusterRouting: a client that dials the WRONG shard for its market
// is redirected to the owner and bargains there — transparently, in one
// Dial call — while a market no shard serves is still a terminal
// rejection, not a redirect loop.
func TestClusterRouting(t *testing.T) {
	cluster := startCluster(t, 3, "", "alpha", "beta", "gamma")
	owners := cluster.Markets()
	addrs := cluster.Addrs()

	// Pick a market and a shard that does not own it.
	market := "alpha"
	wrong := (owners[market] + 1) % 3

	engine := clusterEngine(t)
	client, err := Dial(context.Background(), addrs[wrong],
		WithMarket(market),
		WithSession(engine.Session()),
		WithGains(engine.CatalogGains()),
	)
	if err != nil {
		t.Fatalf("dial via wrong shard: %v", err)
	}
	defer client.Close()
	if client.Market() != market {
		t.Fatalf("resolved market %q, want %q", client.Market(), market)
	}
	if got, want := client.Addr(), addrs[owners[market]]; got != want {
		t.Fatalf("client landed on %s, want owner %s", got, want)
	}
	res, err := client.Bargain(context.Background(), BargainOptions{Seed: 42})
	if err != nil {
		t.Fatalf("bargain after redirect: %v", err)
	}
	if res == nil {
		t.Fatal("bargain after redirect returned no result")
	}

	wrongSrv, err := cluster.Shard(wrong)
	if err != nil {
		t.Fatal(err)
	}
	m := wrongSrv.Metrics()
	if m.Redirected < 1 {
		t.Fatalf("wrong shard redirected %d connections, want >= 1", m.Redirected)
	}
	if m.Rejected != 0 {
		t.Fatalf("redirects counted as rejections: %d", m.Rejected)
	}

	// A market nobody serves: terminal rejection from any shard.
	if _, err := Dial(context.Background(), addrs[0], WithMarket("no-such-market")); err == nil {
		t.Fatal("unknown market resolved somewhere")
	} else if !errors.Is(err, ErrRejected) {
		t.Fatalf("unknown market failed with %v, want ErrRejected", err)
	}
}

// TestClusterStats: the admin stats envelope carries server counters,
// per-market counters, and the shard-map epoch over the wire — the feed
// the rebalancer plans from.
func TestClusterStats(t *testing.T) {
	cluster := startCluster(t, 2, "", "alpha", "beta")
	engine := clusterEngine(t)

	client, err := cluster.Dial(context.Background(), "alpha",
		WithSession(engine.Session()), WithGains(engine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}

	rep, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats over the wire: %v", err)
	}
	if rep.Server.Sessions < 1 {
		t.Fatalf("stats report %d sessions, want >= 1", rep.Server.Sessions)
	}
	ms, ok := rep.Markets["alpha"]
	if !ok {
		t.Fatalf("stats report misses market alpha: %v", rep.Markets)
	}
	if ms.Sessions < 1 {
		t.Fatalf("market alpha reports %d sessions, want >= 1", ms.Sessions)
	}
	if rep.Epoch != cluster.Epoch() {
		t.Fatalf("stats epoch %d, want registry epoch %d", rep.Epoch, cluster.Epoch())
	}

	fleet := cluster.Stats(context.Background())
	if len(fleet) != 2 {
		t.Fatalf("fleet stats cover %d shards, want 2", len(fleet))
	}
}

// TestClusterLiveMigrationBitIdentical is the PR's acceptance scenario: an
// identified imperfect buyer bargains against the fabric; mid-exploration
// the market is live-migrated to another shard — its sessions severed, its
// durable state carried over, the shard map re-pinned. The client's
// auto-resume redials, rides the migration window's retryable busy, lands
// on the new owner via redirect, and finishes the session bit-identically
// — trace, outcome, both MSE curves — to an unmigrated run, with zero
// failed sessions anywhere in the fleet.
func TestClusterLiveMigrationBitIdentical(t *testing.T) {
	// Reference: the same session, uninterrupted, in-process.
	engine := clusterEngine(t)
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

	cluster := startCluster(t, 3, stateTestDir(t), "titanic")
	from := cluster.Markets()["titanic"]
	to := (from + 1) % 3
	epochBefore := cluster.Epoch()

	// The migration fires from the client's round observer the first time
	// the session reaches the cut round — mid-exploration, with the
	// session's connection live on the source shard.
	migrated := make(chan error, 1)
	var once sync.Once
	trigger := func() {
		once.Do(func() {
			go func() {
				migrated <- cluster.Migrate(context.Background(), "titanic", to)
			}()
		})
	}

	client, err := cluster.Dial(context.Background(), "titanic",
		WithIdentity("buyer-1"),
		WithSession(engine.SessionImperfect()),
		WithGains(engine.CatalogGains()),
		WithImperfect(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	obs := ObserverFuncs{Round: func(rec RoundRecord) {
		if rec.Round == cut {
			trigger()
		}
	}}
	got, err := client.BargainImperfect(context.Background(),
		BargainOptions{Seed: seed, Observers: []RoundObserver{obs}})
	if err != nil {
		t.Fatalf("migrated session failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated session diverges from unmigrated run:\nmigrated: %+v\nwant:     %+v", got, want)
	}
	if merr := <-migrated; merr != nil {
		t.Fatalf("migration: %v", merr)
	}

	// The fleet saw choreography, not failure: the severed session counts
	// as evicted on the source, resumed on the destination, failed nowhere.
	for id := 0; id < 3; id++ {
		srv, err := cluster.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		if m := srv.Metrics(); m.Failed != 0 {
			t.Fatalf("shard %d failed %d sessions, want 0", id, m.Failed)
		}
	}
	srcSrv, _ := cluster.Shard(from)
	if m := srcSrv.Metrics(); m.Evicted < 1 {
		t.Fatalf("source shard evicted %d sessions, want >= 1", m.Evicted)
	}
	dstSrv, _ := cluster.Shard(to)
	mm := dstSrv.MarketMetrics()["titanic"]
	if mm.ResumedSessions < 1 {
		t.Fatalf("destination granted %d resumes, want >= 1", mm.ResumedSessions)
	}
	if cluster.Markets()["titanic"] != to {
		t.Fatalf("market still owned by shard %d, want %d", cluster.Markets()["titanic"], to)
	}
	if cluster.Epoch() <= epochBefore {
		t.Fatalf("migration did not bump the epoch: %d -> %d", epochBefore, cluster.Epoch())
	}

	// A fresh dial finds the market at its new home with no redirect dance
	// from the owner itself.
	probe, err := cluster.Dial(context.Background(), "titanic")
	if err != nil {
		t.Fatalf("dial after migration: %v", err)
	}
	defer probe.Close()
	if got, want := probe.Addr(), cluster.Addrs()[to]; got != want {
		t.Fatalf("post-migration dial landed on %s, want %s", got, want)
	}
}

// TestClusterRebalance: two markets colocated on one shard, one of them
// hot — the stats-driven planner proposes moving the hot market, the
// cluster executes the transfer live, and the market keeps serving at its
// new home.
func TestClusterRebalance(t *testing.T) {
	// Register markets until two share a shard (6 names over 3 shards
	// pigeonhole a pair; the hash is deterministic, so this is stable).
	names := make([]string, 6)
	for i := range names {
		names[i] = fmt.Sprintf("m-%d", i)
	}
	cluster := startCluster(t, 3, "", names...)
	owners := cluster.Markets()
	byShard := make(map[int][]string)
	for m, s := range owners {
		byShard[s] = append(byShard[s], m)
	}
	var hot, warm string
	for _, ms := range byShard {
		if len(ms) >= 2 {
			hot, warm = ms[0], ms[1]
			break
		}
	}
	if hot == "" {
		t.Fatalf("no two markets colocated: %v", owners)
	}

	engine := clusterEngine(t)
	run := func(market string, sessions int) {
		t.Helper()
		client, err := cluster.Dial(context.Background(), market,
			WithSession(engine.Session()), WithGains(engine.CatalogGains()))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := 0; i < sessions; i++ {
			if _, err := client.Bargain(context.Background(), BargainOptions{Seed: uint64(100 + i)}); err != nil {
				t.Fatalf("session %d on %s: %v", i, market, err)
			}
		}
	}
	run(hot, 8)
	run(warm, 2)

	moves, err := cluster.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if len(moves) != 1 {
		t.Fatalf("rebalance executed %d transfers, want 1: %+v", len(moves), moves)
	}
	mv := moves[0]
	if mv.Market != hot {
		t.Fatalf("rebalance moved %q, want the hot market %q", mv.Market, hot)
	}
	if mv.From != owners[hot] {
		t.Fatalf("rebalance moved off shard %d, want %d", mv.From, owners[hot])
	}
	if mv.Reason == "" {
		t.Fatal("executed transfer carries no reason")
	}
	if cluster.Markets()[hot] != mv.To {
		t.Fatalf("market %q not re-owned by shard %d", hot, mv.To)
	}
	// The migrated market still serves.
	run(hot, 1)
}

// TestResumeBackoffSchedule pins the redial schedule: capped exponential
// growth, defaults where fields are zero, jitter bounded by the configured
// fraction and disabled by a negative one.
func TestResumeBackoffSchedule(t *testing.T) {
	det := ResumeBackoff{Attempts: 6, Base: 100 * time.Millisecond, Max: 500 * time.Millisecond, Jitter: -1}.withDefaults()
	wantWaits := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond,
	}
	for k, want := range wantWaits {
		if got := det.wait(k + 1); got != want {
			t.Fatalf("wait(%d) = %v, want %v", k+1, got, want)
		}
	}

	def := ResumeBackoff{}.withDefaults()
	if def.Attempts != 12 || def.Base != 150*time.Millisecond || def.Max != 2*time.Second || def.Jitter != 0.2 {
		t.Fatalf("zero policy defaulted to %+v", def)
	}
	for k := 1; k < 20; k++ {
		w := def.wait(k)
		lo := time.Duration(float64(def.Base) * 0.8)
		hi := time.Duration(float64(def.Max) * 1.2)
		if w < lo || w > hi {
			t.Fatalf("wait(%d) = %v outside [%v, %v]", k, w, lo, hi)
		}
	}
}

// TestClusterChurnNoDroppedSessions: many short sessions, each on a fresh
// Client that closes its connection the moment the session ends, against a
// 2-shard fleet where every other dial lands on the wrong shard and follows
// a redirect. The server sees each session's final frame and the client's
// EOF back to back; a session that completed must never be counted as
// dropped (or failed) fleet-wide.
func TestClusterChurnNoDroppedSessions(t *testing.T) {
	cluster := startCluster(t, 2, "", "alpha", "beta")
	engine := clusterEngine(t)
	addrs := cluster.Addrs()
	markets := []string{"alpha", "beta"}

	const sessions, workers = 400, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += workers {
				client, err := Dial(context.Background(), addrs[i%2],
					WithMarket(markets[(i/2)%2]),
					WithSession(engine.Session()),
					WithGains(engine.CatalogGains()),
				)
				if err != nil {
					errs <- fmt.Errorf("session %d: dial: %w", i, err)
					return
				}
				_, err = client.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
				client.Close()
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait for every shard to finish accounting the sessions it served.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var served, active uint64
		var dropped, failed uint64
		for id := range addrs {
			srv, err := cluster.Shard(id)
			if err != nil {
				t.Fatal(err)
			}
			m := srv.Metrics()
			served += m.Sessions
			active += uint64(m.Active)
			dropped += m.Dropped
			failed += m.Failed
		}
		if served >= sessions && active == 0 {
			if dropped != 0 || failed != 0 {
				t.Fatalf("%d completed sessions: fleet counted %d dropped and %d failed", served, dropped, failed)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet served %d of %d sessions, %d still active", served, sessions, active)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
