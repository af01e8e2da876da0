package fabric

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// StatsFunc fetches one shard's metrics snapshot. The fabric feeds it the
// over-the-wire admin read (wire.FetchStats against the shard's address),
// so the rebalancer never needs in-process access to a Server.
type StatsFunc func(ctx context.Context, shard Shard) (*wire.StatsReport, error)

// MarketLoad is one market's load on its shard over the last observation
// window: the work signals the planner weighs.
type MarketLoad struct {
	Market string
	// Sessions is the bargaining sessions served in the window.
	Sessions uint64
	// Active is the sessions being served right now (not windowed).
	Active int64
	// Trainings is the VFL courses the market's gain oracle trained in the
	// window — the dominant cost on real-gain markets.
	Trainings int
	// Score is the planner's scalar weight for this market.
	Score float64
}

// ShardLoad is one shard's load over the last observation window.
type ShardLoad struct {
	Shard Shard
	// Busy counts admission-control refusals in the window — demand the
	// shard turned away, the strongest overload signal.
	Busy uint64
	// Score is the sum of the shard's market scores plus the busy penalty.
	Score   float64
	Markets []MarketLoad
	// Err records a failed stats fetch; the planner skips such shards.
	Err error
}

// Transfer is one planned migration: move Market from one shard to
// another. It mirrors the spqr balancer's planned transfer tasks — the
// planner emits them, an executor (vflmarket.Cluster.Rebalance) runs them.
type Transfer struct {
	Market string
	From   Shard
	To     Shard
	Reason string
}

// Planner weights.
const (
	// busyWeight scores one admission-control refusal relative to one
	// served session: turned-away demand is worth more than served demand
	// because it is user-visible failure.
	busyWeight = 4.0
	// trainingWeight scores one oracle training relative to one session: a
	// VFL course dominates a session's compute on real-gain markets.
	trainingWeight = 8.0
	// imbalanceRatio is how much hotter than the fleet mean a shard must
	// run before the planner moves a market off it.
	imbalanceRatio = 1.5
	// minScore is the absolute load floor below which the planner never
	// plans: an idle fleet stays put no matter how uneven its zeros are.
	minScore = 4.0
)

// Rebalancer watches per-shard load through a StatsFunc and plans market
// transfers. Counters in stats snapshots are cumulative, so the rebalancer
// differences consecutive observations per shard: a market that was hot an
// hour ago but idle now does not keep attracting transfers.
type Rebalancer struct {
	Reg   *Registry
	Stats StatsFunc

	prev map[int]*wire.StatsReport
}

// NewRebalancer builds a rebalancer over the registry with the given
// stats source.
func NewRebalancer(reg *Registry, stats StatsFunc) *Rebalancer {
	return &Rebalancer{Reg: reg, Stats: stats, prev: make(map[int]*wire.StatsReport)}
}

// Observe fetches every shard's snapshot and returns the windowed load
// (deltas against the previous Observe), shards in ID order. Fetch
// failures are recorded per shard, not fatal: a planner must keep working
// while one shard is unreachable.
func (rb *Rebalancer) Observe(ctx context.Context) []ShardLoad {
	shards := rb.Reg.Shards()
	loads := make([]ShardLoad, 0, len(shards))
	for _, s := range shards {
		load := ShardLoad{Shard: s}
		rep, err := rb.Stats(ctx, s)
		if err != nil {
			load.Err = err
			loads = append(loads, load)
			continue
		}
		prev := rb.prev[s.ID]
		load.Busy = rep.Server.Busy - prevBusy(prev)
		for name, ms := range rep.Markets {
			pm := prevMarket(prev, name)
			ml := MarketLoad{
				Market:    name,
				Sessions:  ms.Sessions - pm.Sessions,
				Active:    ms.ActiveSessions,
				Trainings: ms.OracleTrainings - pm.OracleTrainings,
			}
			ml.Score = float64(ml.Sessions) + float64(ml.Active) + trainingWeight*float64(ml.Trainings)
			load.Score += ml.Score
			load.Markets = append(load.Markets, ml)
		}
		sort.Slice(load.Markets, func(i, j int) bool {
			if load.Markets[i].Score != load.Markets[j].Score {
				return load.Markets[i].Score > load.Markets[j].Score
			}
			return load.Markets[i].Market < load.Markets[j].Market
		})
		load.Score += busyWeight * float64(load.Busy)
		rb.prev[s.ID] = rep
		loads = append(loads, load)
	}
	return loads
}

func prevBusy(rep *wire.StatsReport) uint64 {
	if rep == nil {
		return 0
	}
	return rep.Server.Busy
}

func prevMarket(rep *wire.StatsReport, name string) wire.MarketStats {
	if rep == nil {
		return wire.MarketStats{}
	}
	return rep.Markets[name]
}

// Plan observes the fleet and proposes at most one transfer: the hottest
// market off the most overloaded shard onto the least loaded one. One
// transfer per pass keeps the fabric stable — each migration changes the
// load the next pass observes, so chaining decisions inside one snapshot
// would plan against stale numbers. Returns nil when the fleet is balanced
// (or too idle to matter).
func (rb *Rebalancer) Plan(ctx context.Context) []Transfer {
	loads := rb.Observe(ctx)
	live := loads[:0]
	for _, l := range loads {
		if l.Err == nil {
			live = append(live, l)
		}
	}
	if len(live) < 2 {
		return nil
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Score > live[j].Score })
	hot, cold := live[0], live[len(live)-1]
	if hot.Score < minScore {
		return nil
	}
	mean := 0.0
	for _, l := range live {
		mean += l.Score
	}
	mean /= float64(len(live))
	if hot.Score <= imbalanceRatio*mean {
		return nil
	}
	// Move the hottest market whose departure actually lowers the fleet's
	// peak: relocating a hotspot that would make the destination the new
	// peak relieves nothing.
	for _, m := range hot.Markets {
		if m.Score <= 0 {
			break
		}
		if cold.Score+m.Score >= hot.Score {
			continue
		}
		return []Transfer{{
			Market: m.Market,
			From:   hot.Shard,
			To:     cold.Shard,
			Reason: fmt.Sprintf("shard %s score %.1f > %.1f×mean %.1f; market %q carries %.1f",
				hot.Shard.Name, hot.Score, imbalanceRatio, mean, m.Market, m.Score),
		}}
	}
	return nil
}
