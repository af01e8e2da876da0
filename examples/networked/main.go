// Networked market: one multi-market server process serves two named
// engines ("titanic" and "credit") behind a single listener — the
// two-organisation deployment shape the paper's production setting implies,
// scaled to a service. Two task-party clients connect concurrently, one per
// market, each multiplexing its sessions over one connection in the wire's
// binary envelope encoding (documented byte for byte in the README, so
// non-Go parties can speak it too). Settlement runs under Paillier
// encryption (§3.6), so the realized performance gains never cross the
// connection in clear — and each client's trace is bit-identical to what an
// in-process engine run with the same seed would produce.
//
// The second act is the paper's headline setting: bargaining under
// imperfect performance information (§3.5), run over the same wire
// protocol. The imperfect regime trains the data party's estimator on the
// realized gains each settlement feeds back, so it needs cleartext
// settlement — the demo serves it from a second, clear listener, and
// checks the networked ImperfectResult (trace and both MSE learning
// curves) is bit-identical to the in-process engine too.
//
//	go run ./examples/networked
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"reflect"
	"sync"

	"repro"
)

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// ---- The data party: one server, two markets, encrypted settlement.
	srv := vflmarket.NewServer(
		vflmarket.WithSecureSettlement(256), // demo-sized Paillier primes
		vflmarket.WithSessionHook(func(ev vflmarket.SessionEvent) {
			if ev.Summary != nil {
				fmt.Printf("  [server] %s session: closed=%v rounds=%d decrypted payment=%.4f\n",
					ev.Market, ev.Summary.Closed, ev.Summary.Rounds, ev.Summary.Payment)
			}
		}),
	)
	engines := map[string]*vflmarket.Engine{}
	for _, name := range []string{"titanic", "credit"} {
		engine, err := vflmarket.NewEngine(name,
			vflmarket.WithSynthetic(true),
			vflmarket.WithSeed(21),
		)
		if err != nil {
			log.Fatal(err)
		}
		engines[name] = engine
		if err := srv.Register(name, engine); err != nil {
			log.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	fmt.Printf("Market service on %s: markets %v, Paillier settlement on\n\n", ln.Addr(), srv.Markets())

	// ---- Two task parties bargain concurrently, one per market. Each
	// builds its own engine view of the market (same dataset and seed) for
	// its private session template and pre-trained gains.
	var wg sync.WaitGroup
	for _, market := range []string{"titanic", "credit"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := engines[market]
			client, err := vflmarket.Dial(ctx, ln.Addr().String(),
				vflmarket.WithMarket(market),
				vflmarket.WithSession(engine.Session()),
				vflmarket.WithGains(engine.CatalogGains()),
			)
			if err != nil {
				log.Fatal(err)
			}
			// Against this Paillier-settling server the client keeps a pool
			// of precomputed encryption randomizers; Close releases it.
			defer client.Close()
			res, err := client.Bargain(ctx, vflmarket.BargainOptions{Seed: 7})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [client] %s: %v after %d rounds, ΔG=%.4f, expects to pay %.4f\n",
				market, res.Outcome, len(res.Rounds), res.Final.Gain, res.Final.Payment)

			// The same seed in-process reproduces the networked trace
			// bit for bit: the wire client runs the identical game loop.
			local, err := engine.Bargain(context.Background(), vflmarket.BargainOptions{Seed: 7})
			if err != nil {
				log.Fatal(err)
			}
			if local.Outcome != res.Outcome || local.Final != res.Final {
				log.Fatalf("%s: networked result diverged from the in-process engine:\n  wire:   %v %+v\n  engine: %v %+v",
					market, res.Outcome, res.Final, local.Outcome, local.Final)
			}
			fmt.Printf("  [client] %s: networked result matches the in-process engine exactly\n", market)
		}()
	}
	wg.Wait()

	// ---- The imperfect regime over the wire: neither party knows any
	// bundle's ΔG in advance; both learn estimators online while
	// bargaining. Realized gains are the training signal, so this market
	// settles in clear, on its own listener.
	clearSrv := vflmarket.NewServer()
	if err := clearSrv.Register("titanic", engines["titanic"]); err != nil {
		log.Fatal(err)
	}
	clearLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	clearDone := make(chan error, 1)
	go func() { clearDone <- clearSrv.Serve(ctx, clearLn) }()

	engine := engines["titanic"]
	params := vflmarket.ImperfectParams{ExplorationRounds: 60}
	client, err := vflmarket.Dial(ctx, clearLn.Addr().String(),
		vflmarket.WithSession(engine.SessionImperfect()),
		vflmarket.WithGains(engine.CatalogGains()),
		vflmarket.WithImperfect(params),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nImperfect-information market on %s (modes %v)\n", clearLn.Addr(), client.Modes())
	ires, err := client.BargainImperfect(ctx, vflmarket.BargainOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  [client] imperfect: %v after %d rounds (%d exploration), final ΔG=%.4f, pays %.4f\n",
		ires.Outcome, len(ires.Rounds), params.ExplorationRounds, ires.Final.Gain, ires.Final.Payment)
	fmt.Printf("  [client] estimator MSE fell %.4f → %.4f (task) and %.4f → %.4f (data)\n",
		ires.TaskMSE[0], ires.TaskMSE[len(ires.TaskMSE)-1],
		ires.DataMSE[0], ires.DataMSE[len(ires.DataMSE)-1])

	local, err := engine.BargainImperfect(context.Background(), 7, params.ExplorationRounds)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(local, ires) {
		log.Fatalf("networked imperfect result diverged from the in-process engine:\n  wire:   %v %+v\n  engine: %v %+v",
			ires.Outcome, ires.Final, local.Outcome, local.Final)
	}
	fmt.Println("  [client] networked imperfect result matches the in-process engine exactly")

	cancel()
	<-serveDone
	<-clearDone
	m := srv.Metrics()
	fmt.Printf("\nServer metrics: %d sessions, %d closed, %d failed\n", m.Sessions, m.Closed, m.Failed)
	for name, mm := range clearSrv.MarketMetrics() {
		fmt.Printf("Clear server market %s: %d sessions (%d imperfect)\n", name, mm.Sessions, mm.ImperfectSessions)
	}
	fmt.Println("In the perfect-information act the data party learned only the payments;")
	fmt.Println("the per-round ΔG values crossed the wire exclusively as Paillier ciphertexts.")
}
