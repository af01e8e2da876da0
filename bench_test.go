package vflmarket

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark iteration regenerates the experiment's rows/series at a
// reduced-but-faithful scale (synthetic gains, fewer runs); the cmd/figures
// and cmd/tables binaries run the same code at paper scale. The Ablation
// benchmarks quantify design choices; EXPERIMENTS.md ("Benchmarks and the
// perf trajectory") lists them.

import (
	"context"
	crand "crypto/rand"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/tree"
	"repro/internal/vfl"
	"repro/internal/wire"
)

// benchOpts is the reduced-scale option set shared by the experiment
// benchmarks.
func benchOpts(runs int) exp.Options {
	return exp.Options{
		Runs:       runs,
		Seed:       1,
		Scale:      0.5,
		Horizon:    60,
		GainSource: exp.GainSynthetic,
	}
}

// BenchmarkTable2DatasetStats regenerates Table 2 (dataset statistics) at
// the paper's full sample counts.
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunTable2(1)
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure2RandomForest regenerates the Figure 2 panels (bargaining
// dynamics + final-quote densities, random-forest base model).
func BenchmarkFigure2RandomForest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.RunFigure23(context.Background(), vfl.RandomForest, benchOpts(10))
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Datasets) != 3 {
			b.Fatal("wrong dataset count")
		}
	}
}

// BenchmarkFigure3MLP regenerates the Figure 3 panels (same dynamics with
// the 3-layer MLP base model).
func BenchmarkFigure3MLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.RunFigure23(context.Background(), vfl.MLP, benchOpts(10))
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Datasets) != 3 {
			b.Fatal("wrong dataset count")
		}
	}
}

// BenchmarkTable3BargainingCost regenerates Table 3 (effect of bargaining
// cost: linear and exponential C(T) at two ε per dataset).
func BenchmarkTable3BargainingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := exp.RunTable3(context.Background(), benchOpts(10))
		if err != nil {
			b.Fatal(err)
		}
		if len(t3.Rows) != 30 { // 3 datasets × 2 ε × 5 cost settings
			b.Fatalf("rows = %d", len(t3.Rows))
		}
	}
}

// BenchmarkTable4Imperfect regenerates Table 4 (imperfect vs perfect
// performance information, both base models).
func BenchmarkTable4Imperfect(b *testing.B) {
	opts := exp.Table4Options{
		Options:           benchOpts(4),
		ExplorationRounds: 40,
		MaxRounds:         120,
		Models:            []vfl.BaseModel{vfl.RandomForest},
	}
	opts.Datasets = []dataset.Name{dataset.Titanic, dataset.Credit, dataset.Adult}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4, err := exp.RunTable4(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(t4.Cols) != 6 {
			b.Fatalf("cols = %d", len(t4.Cols))
		}
	}
}

// BenchmarkFigure4EstimatorMSE regenerates Figure 4 (per-round MSE of the
// ΔG estimation networks on both parties).
func BenchmarkFigure4EstimatorMSE(b *testing.B) {
	opts := exp.Figure4Options{
		Options:           benchOpts(3),
		Rounds:            80,
		ExplorationRounds: 80,
		Models:            []vfl.BaseModel{vfl.RandomForest},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4, err := exp.RunFigure4(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(f4.Panels) != 3 {
			b.Fatalf("panels = %d", len(f4.Panels))
		}
	}
}

// BenchmarkAblationPriceSampler compares candidate-pool sizes for the
// strategic task party (Algorithm 1 line 16): finer pools converge closer
// to the reserved price at the cost of more rounds.
func BenchmarkAblationPriceSampler(b *testing.B) {
	for _, poolSize := range []int{60, 300, 1200} {
		b.Run("pool-"+strconv.Itoa(poolSize), func(b *testing.B) {
			m, err := NewEngineFromConfig(Config{Dataset: "titanic", Synthetic: true, Scale: 0.5, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rounds, overpay float64
			n := 0
			for i := 0; i < b.N; i++ {
				cfg := m.Session()
				cfg.PriceSamples = poolSize
				cfg.Seed = uint64(i)
				res, err := m.BargainWith(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome == Success {
					rounds += float64(len(res.Rounds))
					reserved := m.Catalog().Bundles[res.Final.BundleID].Reserved
					overpay += res.Final.Price.Rate - reserved.Rate
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(rounds/float64(n), "rounds/op")
				b.ReportMetric(overpay/float64(n), "rate-overpay/op")
			}
		})
	}
}

// BenchmarkAblationBisection compares the future-work bisection offer
// strategy against linear pool escalation: rounds to close vs the payment
// premium it costs.
func BenchmarkAblationBisection(b *testing.B) {
	for _, strat := range []struct {
		name string
		s    core.TaskStrategy
	}{
		{"escalation", TaskStrategic},
		{"bisection", TaskBisection},
	} {
		b.Run(strat.name, func(b *testing.B) {
			m, err := NewEngineFromConfig(Config{Dataset: "titanic", Synthetic: true, Scale: 0.5, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rounds, pay float64
			n := 0
			for i := 0; i < b.N; i++ {
				res, err := m.Bargain(context.Background(), BargainOptions{Seed: uint64(i), TaskGreed: strat.s})
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome == Success {
					rounds += float64(len(res.Rounds))
					pay += res.Final.Payment
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(rounds/float64(n), "rounds/op")
				b.ReportMetric(pay/float64(n), "payment/op")
			}
		})
	}
}

// BenchmarkBargainBatch plays N=64 synthetic bargaining sessions per
// iteration through Engine.BargainBatch, serially (workers=1) and across
// the full worker pool (workers=GOMAXPROCS). The two sub-benchmarks return
// byte-identical results — only wall-clock differs — which is the batch
// runner's determinism contract; at GOMAXPROCS >= 8 the parallel form is
// expected to run >= 4x faster than the serial loop.
func BenchmarkBargainBatch(b *testing.B) {
	e, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.5), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]BatchSpec, 64)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.BargainBatch(context.Background(), specs, BatchOptions{
					Workers: bench.workers,
					Seed:    3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(specs) {
					b.Fatalf("results = %d", len(res))
				}
			}
		})
	}
}

// BenchmarkOracleGain prices a fresh 9-bundle catalog of real VFL courses
// (8 bundles + the isolated baseline) through GainOracle.Warm per
// iteration — the pre-bargaining training pass catalog construction runs,
// on its GOMAXPROCS-wide pool. Allocations/op track the vectorized
// trainer's buffer reuse; the forest and MLP rows cover both base models'
// training kernels.
func BenchmarkOracleGain(b *testing.B) {
	spec := dataset.Generate(dataset.Titanic, 11, 300)
	problem := vfl.NewProblem(spec, 11, 0.3)
	bundles := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {2, 3}, {0, 3}, {0, 1, 2, 3}}
	configs := []struct {
		name string
		cfg  vfl.Config
	}{
		{"mlp", vfl.Config{Model: vfl.MLP, Seed: 3, Hidden1: 32, Hidden2: 16, Epochs: 6}},
		{"forest", vfl.Config{Model: vfl.RandomForest, Seed: 3,
			Forest: tree.ForestConfig{NumTrees: 8, MaxDepth: 6}}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := vfl.NewGainOracle(problem, c.cfg)
				if err := o.Warm(context.Background(), bundles); err != nil {
					b.Fatal(err)
				}
				if o.Trainings() != len(bundles)+1 {
					b.Fatalf("trainings = %d, want %d", o.Trainings(), len(bundles)+1)
				}
			}
		})
	}
}

// BenchmarkEngineConstruction measures building a real-gain engine end to
// end — dataset, problem, catalog with every bundle priced by actual VFL
// training on the valuation worker pool. This is the cold-start cost a
// market service pays per registered market. "quarter" is a quarter-scale
// Titanic market; "paper" is the load generator's market (Titanic, split
// MLP, paper scale, seed 1), whose 16 courses are a service's setup time.
func BenchmarkEngineConstruction(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"quarter", []Option{WithModel("mlp"), WithScale(0.25), WithSeed(11)}},
		{"paper", []Option{WithModel("mlp"), WithSeed(1)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewEngine("titanic", c.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceRoundTrip measures one full networked bargaining session
// — dial, handshake, quote/offer/settle rounds, teardown — against a
// loopback multi-market Server over the binary mux wire.
// TestAllocationBudgets holds its allocs/op to a committed budget.
func BenchmarkServiceRoundTrip(b *testing.B) {
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Register("titanic", engine); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()

	b.Run(wire.CodecBinary, func(b *testing.B) {
		client, err := Dial(context.Background(), ln.Addr().String(),
			WithSession(engine.Session()),
			WithGains(engine.CatalogGains()),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := client.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	})
}

// BenchmarkSecureServiceRoundTrip measures one full networked secure
// perfect session against a loopback Server settling under Paillier at
// 256-bit primes, over the binary mux wire. Like the secure load
// workload, sessions walk a 30-price pool, so each closes in about a dozen
// rounds. The client's randomizer pool is primed before the timer starts;
// its background refill of the factor each session draws counts in the
// session's allocations. TestAllocationBudgets holds its allocs/op to a
// committed budget.
func BenchmarkSecureServiceRoundTrip(b *testing.B) {
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	session := engine.Session()
	session.PriceSamples = 30
	_, addr, shutdown := startServer(b, map[string]*Engine{"titanic": engine},
		WithSecureSettlement(256), WithEagerSecureKeys())
	defer shutdown()

	b.Run(wire.CodecBinary, func(b *testing.B) {
		client, err := Dial(context.Background(), addr,
			WithSession(session),
			WithGains(engine.CatalogGains()),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		if err := client.noise[0].Prime(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Bargain(context.Background(), BargainOptions{Seed: uint64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchOverWire measures a batch of 8 deterministic sessions
// through the v6 fast wire, the networked analogue of
// BenchmarkBargainBatch and the transport behind EXPERIMENTS.md Table 4:
//
//   - mux-1conn:        all 8 sessions multiplexed over the Client's one
//     warm TCP connection.
//   - dial-per-session: the v5 regime — every session pays its own dial
//     and handshake, 8 concurrent goroutines.
//
// The mux-1conn vs dial-per-session gap is the tentpole win: session
// setup collapses from (probe dial + session dial + handshake) x 8 to a
// stream-open envelope on an already-handshaked connection. The sessions
// use a small candidate-price pool so they close in a few rounds —
// this benchmark prices the transport, not the game (that is
// BenchmarkServiceRoundTrip's job). Allocations are reported.
func BenchmarkBatchOverWire(b *testing.B) {
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	session := engine.Session()
	session.PriceSamples = 30
	srv := NewServer(WithWorkers(8))
	if err := srv.Register("titanic", engine); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	addr := ln.Addr().String()

	const sessions = 8
	specs := make([]BatchSpec, sessions)

	b.Run("mux-1conn", func(b *testing.B) {
		client, err := Dial(context.Background(), addr,
			WithSession(session),
			WithGains(engine.CatalogGains()),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.BargainBatch(context.Background(), specs,
				BatchOptions{Workers: sessions, Seed: uint64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("dial-per-session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, sessions)
			for j := 0; j < sessions; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					client, err := Dial(context.Background(), addr,
						WithSession(session),
						WithGains(engine.CatalogGains()),
					)
					if err != nil {
						errs[j] = err
						return
					}
					defer client.Close()
					seed := rng.DeriveSeed(uint64(i+1), uint64(j))
					_, errs[j] = client.Bargain(context.Background(), BargainOptions{Seed: seed})
				}(j)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSecureSettlement measures the §3.6 settlement round — the
// secure regime's per-round crypto cost — through the public batched
// path's cipher at demo key size (256-bit primes): sealing the Eq. 2
// payment and opening it on the data side.
//
//   - clear:          the non-secure baseline (Eq. 2 arithmetic only).
//   - secure-inline:  every seal pays the full r^n modexp (the drained
//     pool's fallback, and the pre-rebuild per-round encryption cost).
//   - secure-pooled:  the pipelined regime — seals draw precomputed
//     randomizers (one mulmod in steady state, refilled in the
//     background), opening runs the CRT decryption blinded by powers of
//     the key's own primes.
//
// Both secure variants open through the CRT path; the CRT-vs-classic
// decryption gap is isolated by BenchmarkPaillierDecrypt.
//
// Allocations are reported; the per-op gap between inline and pooled is
// the amortized-randomness win, and BenchmarkPaillier{Encrypt,Decrypt} in
// internal/secure isolate the same effects per primitive (including at
// 1024-bit production-shaped primes).
func BenchmarkSecureSettlement(b *testing.B) {
	quote := core.QuotedPrice{Rate: 9.5, Base: 1.4, High: 3.0}
	const gain = 0.12

	b.Run("clear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pay := quote.Payment(gain); pay <= 0 {
				b.Fatal("non-positive payment")
			}
		}
	})

	sk, err := secure.GenerateKey(crand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	recv := secure.NewDataReceiver(sk)
	pay := quote.Payment(gain)

	b.Run("secure-inline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ct, err := secure.Seal(recv.PublicKey(), nil, pay)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := recv.Open(ct); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("secure-pooled", func(b *testing.B) { benchSecurePooled(b, recv, pay) })
}

// benchSecurePooled runs one secure settlement round per op: a seal drawn
// from a primed pool and one blinded open. A prime-only pool (no
// background workers) refilled outside the timer isolates the steady-state
// per-round cost. In production the pool's workers refill it in the
// background, within the process-wide refill budget that leaves one core
// to the sessions.
func benchSecurePooled(b *testing.B, recv *secure.DataReceiver, pay float64) {
	const chunk = 64 // one draw per round (the seal)
	ns := secure.NewNoiseSource(recv.PublicKey(), chunk, -1, crand.Reader)
	defer ns.Close()
	if err := ns.Prime(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 && i > 0 {
			b.StopTimer()
			if err := ns.Prime(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		ct, err := secure.Seal(recv.PublicKey(), ns, pay)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := recv.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
	if st := ns.Stats(); st.Inline > 0 {
		b.Fatalf("steady-state bench drained its pool (%d inline draws)", st.Inline)
	}
}

// BenchmarkBargainPerfect measures one strategic perfect-information game.
func BenchmarkBargainPerfect(b *testing.B) {
	m, err := NewEngineFromConfig(Config{Dataset: "titanic", Synthetic: true, Scale: 0.5, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Bargain(context.Background(), BargainOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImperfectBargain measures one estimation-based game through the
// Engine API — exploration, both online estimators, experience replay —
// the in-process half of the imperfect regime. Allocations are reported:
// the batched estimator scans and reused layer buffers keep them low, and
// TestAllocationBudgets holds them to a committed budget.
func BenchmarkImperfectBargain(b *testing.B) {
	e, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.5), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.BargainImperfect(context.Background(), uint64(i+1), 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImperfectBatch plays N=16 imperfect-information sessions per
// iteration through Engine.BargainImperfectBatch, serially (workers=1) and
// across the full worker pool (workers=GOMAXPROCS). Like
// BenchmarkBargainBatch, both sub-benchmarks return byte-identical results
// — the worker count only buys wall-clock. Each session carries its own
// estimator pair, so the batch scales without sharing hot state.
func BenchmarkImperfectBatch(b *testing.B) {
	e, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.5), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]BatchSpec, 16)
	params := ImperfectParams{ExplorationRounds: 40, PricePool: 100}
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.BargainImperfectBatch(context.Background(), specs, params, BatchOptions{
					Workers: bench.workers,
					Seed:    3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(specs) {
					b.Fatalf("results = %d", len(res))
				}
			}
		})
	}
}

// BenchmarkImperfectServiceRoundTrip measures one full networked
// imperfect-information session — dial, handshake, exploration rounds
// with per-settlement MSE acks, estimator-driven close, teardown — against
// a loopback multi-market Server over the binary mux wire.
func BenchmarkImperfectServiceRoundTrip(b *testing.B) {
	engine, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.25), WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Register("titanic", engine); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()

	b.Run(wire.CodecBinary, func(b *testing.B) {
		client, err := Dial(context.Background(), ln.Addr().String(),
			WithSession(engine.SessionImperfect()),
			WithGains(engine.CatalogGains()),
			WithImperfect(ImperfectParams{ExplorationRounds: 40, PricePool: 100}),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.BargainImperfect(context.Background(), BargainOptions{Seed: uint64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardRouting prices the fabric's routing tax: a full Dial
// (probe handshake) against the market's owner shard ("direct") versus
// against a shard that does not own it ("redirect" — one v5 redirect
// envelope plus the re-dial to the owner). The delta is the worst-case
// per-connection cost of dialing the wrong door in a sharded fleet;
// steady-state clients pay it once, since the client re-points itself at
// the owner it is redirected to.
func BenchmarkShardRouting(b *testing.B) {
	factory := func(market string, state *MarketState) (*Engine, error) {
		return NewEngineFromConfig(Config{Dataset: "titanic", Synthetic: true, Scale: 0.25, Seed: 11, State: state})
	}
	cluster, err := NewCluster(2, "", factory)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Register("titanic"); err != nil {
		b.Fatal(err)
	}
	owner := cluster.Markets()["titanic"]
	addrs := cluster.Addrs()
	direct, wrong := addrs[owner], addrs[1-owner]

	for _, bc := range []struct {
		name string
		addr string
	}{{"direct", direct}, {"redirect", wrong}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				client, err := Dial(context.Background(), bc.addr, WithMarket("titanic"))
				if err != nil {
					b.Fatal(err)
				}
				client.Close()
			}
		})
	}
}
