// Command fabric runs a sharded market fleet in one process: N shards,
// each a full bargaining server on its own port with its own state
// directory, a consistent-hash registry routing markets onto them, and a
// rebalancer that live-migrates hot markets between shards.
//
// Usage:
//
//	go run ./cmd/fabric -shards 3 -markets titanic,credit,adult
//	    [-model forest] [-scale 0.5] [-seed 1] [-synthetic=true]
//	    [-workers 0] [-timeout 30s] [-state DIR] [-rebalance 30s]
//
// Each market is registered on the shard the registry assigns it; clients
// may dial ANY shard address — a hello for a market served elsewhere is
// answered with a redirect the client follows transparently.
// With -rebalance, the fleet polls its own per-shard stats over the wire
// on that interval and migrates at most one market per pass off the
// hottest shard; in-flight sessions on a migrated market are severed and
// their identified clients resume mid-game on the new owner.
//
// With -state DIR, each shard persists under DIR/shard-N and migrations
// carry the market's estimator checkpoints, Paillier key, and valuation
// memos to the destination's directory, so the market opens warm.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabric: ")
	shards := flag.Int("shards", 3, "number of shards (each its own listener)")
	markets := flag.String("markets", "titanic,credit", "comma-separated market names (titanic, credit, adult)")
	model := flag.String("model", "forest", "VFL base model: forest or mlp")
	seed := flag.Uint64("seed", 1, "engine seed")
	scale := flag.Float64("scale", 0.5, "profile scale in (0,1]")
	synthetic := flag.Bool("synthetic", true, "use synthetic gains (fast startup)")
	workers := flag.Int("workers", 0, "per-shard admission bound: busy past workers+128 handshakes in flight or sessions per connection (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-read/write IO deadline")
	idle := flag.Duration("idletimeout", 0, "close idle multiplexed connections after this long (0 = 4x -timeout, negative = never)")
	stateDir := flag.String("state", "", "fleet state root (each shard persists under DIR/shard-N; empty = memory-only)")
	rebalance := flag.Duration("rebalance", 0, "rebalancer pass interval (0 = disabled)")
	flag.Parse()

	ctx, stop := exp.SignalContext()
	defer stop()

	factory := func(market string, state *vflmarket.MarketState) (*vflmarket.Engine, error) {
		return vflmarket.NewEngineFromConfig(vflmarket.Config{
			Dataset:   market,
			Model:     *model,
			Seed:      *seed,
			Scale:     *scale,
			Synthetic: *synthetic,
			State:     state,
		})
	}
	cluster, err := vflmarket.NewCluster(*shards, *stateDir, factory,
		vflmarket.WithWorkers(*workers),
		vflmarket.WithIOTimeout(*timeout),
		vflmarket.WithIdleTimeout(*idle),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for _, name := range strings.Split(*markets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := cluster.Register(name); err != nil {
			log.Fatal(err)
		}
	}
	addrs := cluster.Addrs()
	for market, shard := range cluster.Markets() {
		fmt.Printf("market %-8s on shard %d (%s)\n", market, shard, addrs[shard])
	}
	fmt.Printf("fleet of %d shards at epoch %d: %v (dial any; Ctrl-C to stop)\n",
		*shards, cluster.Epoch(), addrs)

	if *rebalance > 0 {
		go func() {
			t := time.NewTicker(*rebalance)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					moves, err := cluster.Rebalance(ctx)
					if err != nil {
						log.Printf("rebalance: %v", err)
					}
					for _, mv := range moves {
						fmt.Printf("rebalanced %q: shard %d -> %d (%s)\n", mv.Market, mv.From, mv.To, mv.Reason)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Printf("\nshutdown: %v\n", context.Cause(ctx))
	for id, rep := range cluster.Stats(context.Background()) {
		s := rep.Server
		fmt.Printf("shard %d: %d accepted, %d bargained, %d closed, %d failed, %d redirected, %d evicted, %d busy\n",
			id, s.Accepted, s.Sessions, s.Closed, s.Failed, s.Redirected, s.Evicted, s.Busy)
	}
	if err := cluster.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
