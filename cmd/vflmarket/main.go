// Command vflmarket runs a single bargaining session end to end and prints
// the round-by-round trace: the quoted prices, the bundles the data party
// offers, the realized performance gains, and the final transaction.
//
// With -v the rounds stream as they are played (through a round observer),
// so long negotiations show progress live; Ctrl-C cancels the session
// between rounds.
//
// With -connect the session bargains against a running market service
// (cmd/serve) instead of in-process: the local engine supplies the task
// party's session template and pre-trained gains, the server plays the
// data party. The trace and outcome are bit-identical to the in-process
// run for the same seed when both sides were built alike. -imperfect
// combines with -connect: the remote data party then serves the §3.5
// estimation-based game (exploration rounds, online estimators, replay)
// with the same bit-identity guarantee.
//
// Usage:
//
//	go run ./cmd/vflmarket -dataset titanic [-model forest] [-imperfect] [-seed 1]
//	go run ./cmd/vflmarket -connect 127.0.0.1:7070 -market credit [-imperfect]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vflmarket: ")
	ds := flag.String("dataset", "titanic", "dataset: titanic, credit, or adult")
	model := flag.String("model", "forest", "VFL base model: forest or mlp")
	seed := flag.Uint64("seed", 1, "seed")
	scale := flag.Float64("scale", 0.5, "profile scale in (0,1]")
	synthetic := flag.Bool("synthetic", false, "use synthetic gains (fast)")
	imperfect := flag.Bool("imperfect", false, "bargain under imperfect performance information")
	explore := flag.Int("explore", 60, "exploration rounds N (imperfect only)")
	verbose := flag.Bool("v", false, "stream every round as it is played")
	connect := flag.String("connect", "", "bargain against a market service at this address instead of in-process")
	market := flag.String("market", "", "market name on the service (default: the server's default market)")
	engineSeed := flag.Uint64("engineseed", 1, "with -connect: the server's engine seed (the local market view must mirror the server's -seed/-scale/-model/-synthetic); -seed then only picks the bargaining stream")
	flag.Parse()

	ctx, stop := exp.SignalContext()
	defer stop()

	if *market != "" && *connect == "" {
		log.Fatal("-market requires -connect")
	}
	buildSeed := *seed
	if *connect != "" {
		// The local engine is only the task party's view of the server's
		// market: it must be built exactly like the server's engine, while
		// -seed stays free to pick the bargaining stream.
		buildSeed = *engineSeed
		if *market != "" {
			*ds = *market
		}
	}

	engine, err := vflmarket.NewEngine(*ds,
		vflmarket.WithModel(*model),
		vflmarket.WithSeed(buildSeed),
		vflmarket.WithScale(*scale),
		vflmarket.WithSynthetic(*synthetic),
	)
	if err != nil {
		log.Fatal(err)
	}
	session := engine.Session()
	if *imperfect {
		// The imperfect regime's tolerances absorb estimation error.
		session = engine.SessionImperfect()
	}
	fmt.Printf("Market: %s (%s gains), %d bundles\n", *ds, gainsKind(*synthetic), engine.Catalog().Len())
	fmt.Printf("Task party: u=%.4g, budget=%.4g, target ΔG*=%.4g\n",
		session.U, session.Budget, session.TargetGain)
	fmt.Printf("Opening quote: p=%.4g, P0=%.4g, Ph=%.4g\n\n",
		session.InitRate, session.InitBase, session.InitBase+session.InitRate*session.TargetGain)

	// With -v, stream rounds while the session runs instead of dumping the
	// trace afterwards. Only the per-round half of the printer is attached:
	// this command prints its own outcome summary below.
	var observers []vflmarket.RoundObserver
	if *verbose {
		printer := &exp.RoundPrinter{W: os.Stdout}
		observers = append(observers, vflmarket.ObserverFuncs{Round: printer.OnRound})
	}

	var rounds []vflmarket.RoundRecord
	var outcome vflmarket.Outcome
	var final vflmarket.RoundRecord
	if *connect != "" {
		dialOpts := []vflmarket.DialOption{
			vflmarket.WithMarket(*market),
			vflmarket.WithDialTimeout(5 * time.Second),
			vflmarket.WithSession(session),
			vflmarket.WithGains(engine.CatalogGains()),
		}
		if *imperfect {
			dialOpts = append(dialOpts,
				vflmarket.WithImperfect(vflmarket.ImperfectParams{ExplorationRounds: *explore}))
		}
		client, err := vflmarket.Dial(ctx, *connect, dialOpts...)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		if client.Market() != *ds {
			// Without -market the server resolves its own default, which
			// must match the dataset the local template was built from.
			log.Fatalf("server resolved market %q but the local engine models %q; pass -market %s",
				client.Market(), *ds, client.Market())
		}
		fmt.Printf("Connected: market %q of %v (modes %v, secure=%v)\n\n",
			client.Market(), client.Markets(), client.Modes(), client.Secure())
		opts := vflmarket.BargainOptions{Seed: *seed, Observers: observers}
		if *imperfect {
			res, err := client.BargainImperfect(ctx, opts)
			if err != nil {
				log.Fatal(err)
			}
			rounds, outcome, final = res.Rounds, res.Outcome, res.Final
		} else {
			res, err := client.Bargain(ctx, opts)
			if err != nil {
				log.Fatal(err)
			}
			rounds, outcome, final = res.Rounds, res.Outcome, res.Final
		}
	} else if *imperfect {
		res, err := engine.BargainImperfect(ctx, *seed, *explore, observers...)
		if err != nil {
			log.Fatal(err)
		}
		rounds, outcome, final = res.Rounds, res.Outcome, res.Final
	} else {
		res, err := engine.Bargain(ctx, vflmarket.BargainOptions{Seed: *seed, Observers: observers})
		if err != nil {
			log.Fatal(err)
		}
		rounds, outcome, final = res.Rounds, res.Outcome, res.Final
	}
	if *verbose {
		fmt.Println()
	}

	fmt.Printf("Outcome: %v after %d rounds\n", outcome, len(rounds))
	if outcome == vflmarket.Success {
		b := engine.Catalog().Bundles[final.BundleID]
		fmt.Printf("Transaction: bundle %d %v (reserved p_l=%.3g, P_l=%.3g)\n",
			b.ID, b.Features, b.Reserved.Rate, b.Reserved.Base)
		fmt.Printf("  realized ΔG     = %.4g\n", final.Gain)
		fmt.Printf("  payment (data)  = %.4g\n", final.Payment)
		fmt.Printf("  net profit (task)= %.4g\n", final.NetProfit)
	}
}

func gainsKind(synthetic bool) string {
	if synthetic {
		return "synthetic"
	}
	return "trained VFL"
}
