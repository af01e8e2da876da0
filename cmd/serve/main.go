// Command serve runs the multi-market bargaining service: one listener
// serving any number of named market engines, with admission control
// (busy past -workers+128 handshakes in flight), per-connection IO
// deadlines, optional Paillier settlement, and graceful Ctrl-C shutdown.
//
// Usage:
//
//	go run ./cmd/serve -addr :7070 -markets titanic,credit [-synthetic=false]
//	    [-model forest] [-scale 0.5] [-seed 1] [-workers 0] [-secure]
//	    [-keybits 256] [-timeout 30s] [-state DIR] [-v]
//
// With -state, the service is durable: valuation memos, per-client
// estimator checkpoints, and Paillier keys persist under DIR (flushed
// periodically, on Ctrl-C, and on SIGTERM), so a restarted server prices
// its catalog warm, re-announces the same key, and resumes interrupted
// imperfect sessions mid-game.
//
// Clients select a market by name (see cmd/vflmarket -connect, or the
// vflmarket.Dial API) over the multiplexed wire — the one protocol the
// server speaks, "VFLM/6 bin mux" (or framed gob for callers that name
// it) — in both information regimes: perfect (closed-form pricing over the
// catalog) and imperfect (§3.5 estimation-based bargaining, unless -secure
// — the imperfect regime needs realized gains in clear).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"repro"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	markets := flag.String("markets", "titanic", "comma-separated market names (titanic, credit, adult)")
	model := flag.String("model", "forest", "VFL base model: forest or mlp")
	seed := flag.Uint64("seed", 1, "engine seed")
	scale := flag.Float64("scale", 0.5, "profile scale in (0,1]")
	synthetic := flag.Bool("synthetic", true, "use synthetic gains (fast startup)")
	workers := flag.Int("workers", 0, "admission bound: busy past workers+128 handshakes in flight or sessions per connection (0 = GOMAXPROCS)")
	secure := flag.Bool("secure", false, "settle under Paillier encryption (§3.6)")
	keyBits := flag.Int("keybits", 256, "Paillier prime bits with -secure (production wants 1536+)")
	eagerKeys := flag.Bool("eagerkeys", false, "generate Paillier keys at registration instead of in the background")
	timeout := flag.Duration("timeout", 30*time.Second, "per-read/write IO deadline")
	idle := flag.Duration("idletimeout", 0, "close idle multiplexed connections after this long (0 = 4x -timeout, negative = never)")
	stateDir := flag.String("state", "", "durable state directory (empty = memory-only)")
	verbose := flag.Bool("v", false, "log every session")
	flag.Parse()

	ctx, stop := exp.SignalContext()
	defer stop()

	opts := []vflmarket.ServerOption{
		vflmarket.WithWorkers(*workers),
		vflmarket.WithIOTimeout(*timeout),
		vflmarket.WithIdleTimeout(*idle),
	}
	if *secure {
		opts = append(opts, vflmarket.WithSecureSettlement(*keyBits))
		if *eagerKeys {
			opts = append(opts, vflmarket.WithEagerSecureKeys())
		}
	}
	// One state handle serves the server and every engine: they share its
	// valuation-cache registry, and one flush spills everything.
	var state *vflmarket.MarketState
	if *stateDir != "" {
		var err error
		if state, err = vflmarket.OpenMarketState(*stateDir); err != nil {
			log.Fatal(err)
		}
		opts = append(opts, vflmarket.WithMarketState(state))
	}
	if *verbose {
		opts = append(opts, vflmarket.WithSessionHook(func(ev vflmarket.SessionEvent) {
			switch {
			case ev.Err != nil:
				log.Printf("session %s/%s failed: %v", ev.Market, ev.Remote, ev.Err)
			case ev.Summary == nil:
				log.Printf("listing served to %s (market %s)", ev.Remote, ev.Market)
			default:
				log.Printf("session %s/%s: closed=%v rounds=%d payment=%.4f",
					ev.Market, ev.Remote, ev.Summary.Closed, ev.Summary.Rounds, ev.Summary.Payment)
			}
		}))
	}
	srv := vflmarket.NewServer(opts...)

	for _, name := range strings.Split(*markets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		engine, err := vflmarket.NewEngineFromConfig(vflmarket.Config{
			Dataset:   name,
			Model:     *model,
			Seed:      *seed,
			Scale:     *scale,
			Synthetic: *synthetic,
			State:     state,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Register(name, engine); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("market %-8s ready: %d bundles (εd=%g)\n",
			name, engine.Catalog().Len(), engine.Session().EpsData)
	}
	if *stateDir != "" {
		marketMetrics := srv.MarketMetrics()
		for _, name := range srv.Markets() {
			fmt.Printf("market %-8s state: %d valuations restored from %s\n",
				name, marketMetrics[name].OracleRestored, *stateDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %v on %s (secure=%v; Ctrl-C to stop)\n", srv.Markets(), ln.Addr(), *secure)

	err = srv.Serve(ctx, ln)
	m := srv.Metrics()
	fmt.Printf("\nshutdown: %v\n", err)
	fmt.Printf("sessions: %d accepted, %d bargained, %d closed, %d failed, %d rejected, %d busy\n",
		m.Accepted, m.Sessions, m.Closed, m.Failed, m.Rejected, m.Busy)
	marketMetrics := srv.MarketMetrics()
	for _, name := range srv.Markets() {
		mm := marketMetrics[name]
		fmt.Printf("market %-8s %d sessions (%d imperfect, %d resumed), oracle: %d VFL trainings, %d cached gains, %d memo hits, %d coalesced\n",
			name, mm.Sessions, mm.ImperfectSessions, mm.ResumedSessions, mm.OracleTrainings, mm.OracleCachedGains,
			mm.OracleHits, mm.OracleCoalesced)
	}
	// Serve flushed at shutdown; this second flush only matters if that one
	// failed, and reports the failure where the operator can see it.
	if *stateDir != "" {
		if ferr := srv.FlushState(); ferr != nil {
			log.Printf("state flush: %v", ferr)
		} else {
			fmt.Printf("state flushed to %s\n", *stateDir)
		}
	}
}
