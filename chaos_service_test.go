package vflmarket

// Chaos-hardening tests: the deterministic fault-injecting proxy
// (internal/chaos) sits between real clients and real servers while mixed
// workloads run through it. The headline soak proves the robustness
// contract end to end — under a seeded schedule of latency, throttling,
// partial writes, resets, truncations, and one-way blackholes, every
// session completes bit-identical to a fault-free run, with zero failed
// sessions on the servers. The rest of the file pins the individual
// defenses: the pool's circuit breaker, the per-stream receive timer that
// ends a stalled session (counted as Watchdog), and context-bounded stats
// probes against stalled peers.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/rng"
	"repro/internal/wire"
)

// chaosSeed is the soak's fault-schedule seed: fixed so CI replays the
// same byte-exact schedule every run, overridable with
// VFLMARKET_CHAOS_SEED to explore other schedules. A failure report
// includes the seed; rerunning with it reproduces the exact fault timing.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	if env := os.Getenv("VFLMARKET_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("VFLMARKET_CHAOS_SEED=%q: %v", env, err)
		}
		return v
	}
	return 42
}

// chaosRetry keeps the soak quick: many attempts, short waits — the
// schedule a client wants when faults are injected at millisecond scale.
var chaosRetry = RetryPolicy{Attempts: 14, Base: 20 * time.Millisecond, Max: 250 * time.Millisecond}

// TestChaosSoakBitIdentical is the PR's acceptance scenario: two servers
// (clear and Paillier-settling) behind fault-injecting proxies running a
// seeded mix of retryable faults, ten concurrent sessions across both
// markets, both codecs, and all three regimes (perfect, imperfect with
// identified resume, secure). Every session must finish bit-identical to
// its fault-free golden, no session may be lost, and the servers must
// classify every severed carrier as choreography (dropped/watchdog), never
// as a failed session.
func TestChaosSoakBitIdentical(t *testing.T) {
	seed := chaosSeed(t)
	ctx := context.Background()

	engines := testEngines(t)
	// A state directory so identified imperfect sessions can resume across
	// injected severs — without it a resume request is a protocol error.
	ms, err := OpenMarketState(stateTestDir(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, shutdown := startServer(t, engines, WithIOTimeout(2*time.Second), WithMarketState(ms))
	defer shutdown()
	proxy, err := chaos.NewProxy(addr, chaos.NewPlan(seed, 14))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	secEngine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	srvSec, addrSec, shutdownSec := startServer(t, map[string]*Engine{"titanic": secEngine},
		WithIOTimeout(2*time.Second), WithSecureSettlement(128), WithEagerSecureKeys())
	defer shutdownSec()
	proxySec, err := chaos.NewProxy(addrSec, chaos.NewPlan(seed+1, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer proxySec.Close()

	// Goldens, computed fault-free before any chaos client dials. Each
	// worker runs several sequential sessions over its one pooled
	// connection so the stream offset climbs through the plan's onset
	// window ([2 KiB, 32 KiB)) — one short session would finish under the
	// first onset and prove nothing.
	const perfectRepeats, imperfectRepeats, secureRepeats = 3, 6, 8
	perfectJobs := []struct {
		market string
		seed   uint64
	}{
		{"titanic", 100},
		{"credit", 110},
		{"titanic", 120},
		{"credit", 130},
	}
	wantPerfect := make([][]*Result, len(perfectJobs))
	for i, job := range perfectJobs {
		wantPerfect[i] = make([]*Result, perfectRepeats)
		for r := 0; r < perfectRepeats; r++ {
			if wantPerfect[i][r], err = engines[job.market].Bargain(ctx, BargainOptions{Seed: job.seed + uint64(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	imperfectJobs := []struct {
		market string
		seed   uint64
	}{
		{"titanic", 200},
		{"credit", 210},
		{"titanic", 220},
		{"credit", 230},
	}
	wantImperfect := make([][]*ImperfectResult, len(imperfectJobs))
	for i, job := range imperfectJobs {
		wantImperfect[i] = make([]*ImperfectResult, imperfectRepeats)
		for r := 0; r < imperfectRepeats; r++ {
			cfg := engines[job.market].SessionImperfect()
			cfg.Seed = rng.DeriveSeed(job.seed, uint64(r))
			if wantImperfect[i][r], err = engines[job.market].BargainImperfectWith(ctx, cfg, imperfectTestParams); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The secure golden runs over the wire too — same server, same key,
	// just no proxy in the path — so proxied-vs-direct is an apples-to-
	// apples DeepEqual.
	secureSeeds := []uint64{300, 310}
	wantSecure := make([][]*Result, len(secureSeeds))
	goldenSec, err := Dial(ctx, addrSec,
		WithSession(secEngine.Session()), WithGains(secEngine.CatalogGains()))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range secureSeeds {
		wantSecure[i] = make([]*Result, secureRepeats)
		for r := 0; r < secureRepeats; r++ {
			if wantSecure[i][r], err = goldenSec.Bargain(ctx, BargainOptions{Seed: s + uint64(r)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	goldenSec.Close()

	var wg sync.WaitGroup
	errs := make(chan error, len(perfectJobs)+len(imperfectJobs)+len(secureSeeds))
	run := func(label string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- fmt.Errorf("%s: %w", label, err)
			}
		}()
	}

	for i, job := range perfectJobs {
		i, job := i, job
		run(fmt.Sprintf("perfect/%s/seed=%d", job.market, job.seed), func() error {
			client, err := Dial(ctx, proxy.Addr(),
				WithMarket(job.market),
				WithSession(engines[job.market].Session()),
				WithGains(engines[job.market].CatalogGains()),
				WithSessionTimeout(1500*time.Millisecond),
				WithRetryPolicy(chaosRetry),
			)
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			defer client.Close()
			for r := 0; r < perfectRepeats; r++ {
				got, err := client.Bargain(ctx, BargainOptions{Seed: job.seed + uint64(r)})
				if err != nil {
					return fmt.Errorf("session %d: %w", r, err)
				}
				if !reflect.DeepEqual(got, wantPerfect[i][r]) {
					return fmt.Errorf("session %d diverges from fault-free run (chaos seed %d)", r, seed)
				}
			}
			return nil
		})
	}

	for i, job := range imperfectJobs {
		i, job := i, job
		run(fmt.Sprintf("imperfect/%s/seed=%d", job.market, job.seed), func() error {
			// One client, one pooled conn, a batch of identified sessions —
			// the batch runner suffixes the identity per spec, so a resume
			// after a fault can never collide with a sibling's checkpoint.
			client, err := Dial(ctx, proxy.Addr(),
				WithMarket(job.market),
				WithIdentity(fmt.Sprintf("soak-%d", i)),
				WithSession(engines[job.market].SessionImperfect()),
				WithGains(engines[job.market].CatalogGains()),
				WithImperfect(imperfectTestParams),
				WithSessionTimeout(1500*time.Millisecond),
				WithRetryPolicy(chaosRetry),
			)
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			defer client.Close()
			got, err := client.BargainImperfectBatch(ctx, make([]BatchSpec, imperfectRepeats),
				BatchOptions{Workers: 2, Seed: job.seed})
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, wantImperfect[i]) {
				return fmt.Errorf("batch diverges from fault-free run (chaos seed %d)", seed)
			}
			return nil
		})
	}

	for i, s := range secureSeeds {
		i, s := i, s
		run(fmt.Sprintf("secure/seed=%d", s), func() error {
			client, err := Dial(ctx, proxySec.Addr(),
				WithSession(secEngine.Session()),
				WithGains(secEngine.CatalogGains()),
				WithSessionTimeout(1500*time.Millisecond),
				WithRetryPolicy(chaosRetry),
			)
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			defer client.Close()
			for r := 0; r < secureRepeats; r++ {
				got, err := client.Bargain(ctx, BargainOptions{Seed: s + uint64(r)})
				if err != nil {
					return fmt.Errorf("session %d: %w", r, err)
				}
				if !reflect.DeepEqual(got, wantSecure[i][r]) {
					return fmt.Errorf("session %d diverges from fault-free run (chaos seed %d)", r, seed)
				}
			}
			return nil
		})
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("chaos seed %d: %v", seed, err)
	}

	t.Logf("chaos seed %d: clear proxy fired %d faults over %d conns; secure proxy fired %d over %d",
		seed, proxy.Triggered(), proxy.Accepted(), proxySec.Triggered(), proxySec.Accepted())
	if proxy.Triggered() == 0 {
		t.Errorf("chaos seed %d injected no faults on the clear path; the soak proved nothing — pick a seed whose onsets land inside the workload", seed)
	}
	for name, m := range map[string]ServerMetrics{"clear": srv.Metrics(), "secure": srvSec.Metrics()} {
		if m.Failed != 0 {
			t.Errorf("%s server classified %d sessions as failed under retryable faults, want 0 (metrics %+v)", name, m.Failed, m)
		}
	}
}

// TestChaosCircuitBreakerTripsAndRecovers drives the pool's per-address
// breaker through its whole lifecycle with scheduled connection resets:
// consecutive dial failures trip it open, an open breaker fast-fails with
// ErrCircuitOpen without touching the network, the cooldown admits a
// single half-open probe whose failure re-opens it, and a healthy probe
// closes it again — after which a session completes bit-identically.
func TestChaosCircuitBreakerTripsAndRecovers(t *testing.T) {
	engines := testEngines(t)
	_, addr, shutdown := startServer(t, engines)
	defer shutdown()

	// Accept-order conns 1-3 are reset before a single byte moves; conn 0
	// (the initial dial) and conn 4+ (the recovery) are clean.
	plan := &chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.Reset, Conn: 1, Dir: chaos.ClientToServer, Onset: 0},
		{Kind: chaos.Reset, Conn: 2, Dir: chaos.ClientToServer, Onset: 0},
		{Kind: chaos.Reset, Conn: 3, Dir: chaos.ClientToServer, Onset: 0},
	}}
	proxy, err := chaos.NewProxy(addr, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	engine := engines["titanic"]
	const cooldown = 300 * time.Millisecond
	client, err := Dial(context.Background(), proxy.Addr(),
		WithMarket("titanic"),
		WithSession(engine.Session()),
		WithGains(engine.CatalogGains()),
		WithSessionTimeout(2*time.Second),
		WithRetryPolicy(RetryPolicy{Attempts: 1}),
		WithCircuitBreaker(BreakerPolicy{Threshold: 2, Cooldown: cooldown}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want, err := engine.Bargain(context.Background(), BargainOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the warm conn; the next two dials land on scheduled resets and
	// trip the breaker (threshold 2).
	proxy.Sever()
	for i := 0; i < 2; i++ {
		if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 7}); err == nil {
			t.Fatalf("bargain %d through a resetting proxy succeeded", i)
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("bargain %d fast-failed before the breaker had reason to trip: %v", i, err)
		}
	}

	// Open: fast-fail, no network.
	if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 7}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("tripped breaker admitted a dial: %v", err)
	}
	ps := client.PoolStats()[proxy.Addr()]
	if ps.Breaker != BreakerOpen || ps.Trips != 1 || ps.FastFails < 1 {
		t.Fatalf("after trip: %+v, want open breaker with 1 trip and >=1 fast-fail", ps)
	}

	// Cooldown elapses; the half-open probe hits the last scheduled reset
	// and re-opens the breaker.
	time.Sleep(cooldown + 150*time.Millisecond)
	if _, err := client.Bargain(context.Background(), BargainOptions{Seed: 7}); err == nil {
		t.Fatal("half-open probe against a scheduled reset succeeded")
	}
	if ps := client.PoolStats()[proxy.Addr()]; ps.Breaker != BreakerOpen || ps.Trips != 2 {
		t.Fatalf("after failed probe: %+v, want re-opened breaker with 2 trips", ps)
	}

	// Second cooldown; the probe lands on a clean conn, the breaker closes,
	// and the session result is bit-identical to the in-process engine.
	time.Sleep(cooldown + 150*time.Millisecond)
	got, err := client.Bargain(context.Background(), BargainOptions{Seed: 7})
	if err != nil {
		t.Fatalf("bargain after recovery: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-recovery result diverges from in-process run")
	}
	ps = client.PoolStats()[proxy.Addr()]
	if ps.Breaker != BreakerClosed || ps.ConsecutiveFails != 0 {
		t.Fatalf("after recovery: %+v, want closed breaker with 0 consecutive fails", ps)
	}
	if ps.DialFailures != 3 {
		t.Fatalf("breaker counted %d dial failures, want exactly the 3 scheduled resets", ps.DialFailures)
	}
}

// TestChaosWatchdogSeversStalledSession opens a session and stalls it —
// the peer alive, its connection open, no envelope ever arriving — under a
// 300ms IO timeout. The stream's receive timer must end the session well
// within 2s and count it as a Watchdog kill, not a dropped transport or a
// failed session.
func TestChaosWatchdogSeversStalledSession(t *testing.T) {
	const within = 2 * time.Second
	engines := testEngines(t)
	srv, addr, shutdown := startServer(t, engines, WithIOTimeout(300*time.Millisecond))
	defer shutdown()

	mc, _ := openRawSession(t, addr, wire.ClientHello{Market: "titanic"})
	defer mc.Close()
	opened := time.Now()

	var m ServerMetrics
	for time.Since(opened) < within {
		if m = srv.Metrics(); m.Watchdog >= 1 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if m.Watchdog != 1 {
		t.Fatalf("stream timer ended %d stalled sessions within %v, want 1 (metrics %+v)", m.Watchdog, within, m)
	}
	if m.Failed != 0 || m.Dropped != 0 {
		t.Fatalf("stall misclassified: %+v, want Failed=0 Dropped=0", m)
	}
}

// TestChaosStatsStalledPeer is the stats-probe regression: against a
// listener that accepts and then never speaks, both the wire-level stats
// fetch and a client Dial must return within the caller's context budget
// — not hang until the connection-level IO timeout.
func TestChaosStatsStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accepted, never answered
			mu.Unlock()
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := wire.FetchStats(ctx, conn, time.Minute); err == nil {
		t.Fatal("stats fetch from a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stats fetch ignored its context budget: took %v", elapsed)
	}

	dialCtx, dialCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer dialCancel()
	start = time.Now()
	if _, err := Dial(dialCtx, ln.Addr().String(), WithRetryPolicy(RetryPolicy{Attempts: 1})); err == nil {
		t.Fatal("dial of a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial ignored its context budget: took %v", elapsed)
	}
}
