// Package fabric is the horizontal-scaling layer of the market service: a
// registry that consistent-hashes market names onto N server shards, the
// routing answers shards hand to clients that knock on the wrong door, and
// a rebalancer that plans live market transfers from per-shard load.
//
// The registry is the single source of truth for "who owns market m":
// ownership is a hash-ring lookup (so adding a shard moves only ~1/N of
// the markets) overridden by pins, the record of completed migrations.
// Every mutation bumps a monotonically increasing epoch, carried in
// redirect answers and stats snapshots so clients and planners can order
// what they hear.
//
// A migration is a two-phase move: BeginMove marks the market in flight —
// lookups then answer "moving", which shards surface as a retryable busy —
// and CommitMove pins the market to its new owner and bumps the epoch.
// The shape follows the spqr balancer (key-range → shard maps, per-range
// load stats, planned transfer tasks) with market names as the keys.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Shard is one registry entry: a Server's dialable address and the state
// directory its durable market state lives under.
type Shard struct {
	// ID is the shard's index in the fabric, stable across map changes.
	ID int
	// Name is the shard's display name ("shard-0" when built by NewRegistry
	// from addresses alone).
	Name string
	// Addr is the shard's dialable address.
	Addr string
	// StateDir is the shard's durable state directory ("" for memory-only
	// shards; migrations between such shards lose checkpoints).
	StateDir string
}

// VNodes is the number of virtual ring points each shard contributes.
// More points flatten the ownership distribution; 64 keeps the ring small
// while holding the per-shard market count within a few percent of even
// at fleet sizes this package targets.
const VNodes = 64

type ringPoint struct {
	hash  uint64
	shard int
}

// move is one in-flight migration: the destination shard and the epoch at
// which the move was opened.
type move struct {
	to    int
	epoch uint64
}

// Registry is the fabric's shard map: consistent-hash ownership, pin
// overrides, the in-flight move table, and the epoch that versions it all.
// Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	shards []Shard
	ring   []ringPoint
	pins   map[string]int
	moving map[string]move
	epoch  uint64
}

// NewRegistry builds a registry over the given shards. Shard IDs are
// assigned by position; empty names default to "shard-<id>". At least one
// shard is required, and addresses must be unique (an address is how a
// shard recognizes itself in a Route answer).
func NewRegistry(shards []Shard) (*Registry, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fabric: a registry needs at least one shard")
	}
	r := &Registry{
		pins:   make(map[string]int),
		moving: make(map[string]move),
		epoch:  1,
	}
	seen := make(map[string]bool, len(shards))
	for i, s := range shards {
		s.ID = i
		if s.Name == "" {
			s.Name = fmt.Sprintf("shard-%d", i)
		}
		if s.Addr == "" {
			return nil, fmt.Errorf("fabric: shard %d needs an address", i)
		}
		if seen[s.Addr] {
			return nil, fmt.Errorf("fabric: duplicate shard address %q", s.Addr)
		}
		seen[s.Addr] = true
		r.shards = append(r.shards, s)
	}
	r.rebuildRingLocked()
	return r, nil
}

// rebuildRingLocked recomputes the hash ring; callers hold r.mu.
func (r *Registry) rebuildRingLocked() {
	r.ring = r.ring[:0]
	for _, s := range r.shards {
		for v := 0; v < VNodes; v++ {
			r.ring = append(r.ring, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", s.Name, v)),
				shard: s.ID,
			})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
}

// hash64 maps a name onto the ring's keyspace: FNV-1a for the byte mixing,
// then a murmur-style finalizer. The finalizer matters — FNV alone leaves
// names sharing a long prefix (market-0001, market-0002, …) clustered in a
// few arcs of the 64-bit space, and clustered keys defeat the ring's whole
// point of spreading markets evenly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Epoch returns the current shard-map version. It increases on every
// committed move.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Shards lists the registry's shard entries in ID order.
func (r *Registry) Shards() []Shard {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Shard(nil), r.shards...)
}

// ownerLocked resolves ownership under r.mu: pin override first, then the
// hash ring (first point clockwise of the market's hash).
func (r *Registry) ownerLocked(market string) int {
	if id, ok := r.pins[market]; ok {
		return id
	}
	h := hash64(market)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// Owner resolves the shard that owns the market under the current map,
// along with the epoch of that answer. An in-flight move does not change
// ownership until committed.
func (r *Registry) Owner(market string) (Shard, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[r.ownerLocked(market)], r.epoch
}

// BeginMove opens a migration of market onto the destination shard: until
// CommitMove (or AbortMove), Route answers for the market report Moving,
// which shards surface to clients as a retryable busy. Returns the epoch
// the move was opened at. Moving a market onto its current owner, or a
// market already in flight, is an error.
func (r *Registry) BeginMove(market string, to int) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if to < 0 || to >= len(r.shards) {
		return 0, fmt.Errorf("fabric: cannot move %q to unknown shard %d", market, to)
	}
	if m, inFlight := r.moving[market]; inFlight {
		return 0, fmt.Errorf("fabric: market %q is already moving to shard %d", market, m.to)
	}
	if r.ownerLocked(market) == to {
		return 0, fmt.Errorf("fabric: market %q already lives on shard %d", market, to)
	}
	r.moving[market] = move{to: to, epoch: r.epoch}
	return r.epoch, nil
}

// CommitMove completes an in-flight migration: the market is pinned to its
// destination, the move table entry cleared, and the epoch bumped. Returns
// the new epoch.
func (r *Registry) CommitMove(market string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, inFlight := r.moving[market]
	if !inFlight {
		return 0, fmt.Errorf("fabric: no move in flight for market %q", market)
	}
	delete(r.moving, market)
	r.pins[market] = m.to
	r.epoch++
	return r.epoch, nil
}

// AbortMove cancels an in-flight migration without changing ownership.
// Aborting a market that is not moving is a no-op.
func (r *Registry) AbortMove(market string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.moving, market)
}

// Route is a shard-side ownership answer: where the market lives, at what
// epoch, and whether it is mid-migration (in which case Addr is the
// destination-to-be and the asker should answer clients with a retryable
// busy rather than a redirect).
type Route struct {
	Shard  Shard
	Epoch  uint64
	Moving bool
}

// RouteFor resolves the market for a shard answering a client: the current
// owner under the map, flagged Moving while a migration is in flight.
func (r *Registry) RouteFor(market string) Route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m, inFlight := r.moving[market]; inFlight {
		return Route{Shard: r.shards[m.to], Epoch: r.epoch, Moving: true}
	}
	return Route{Shard: r.shards[r.ownerLocked(market)], Epoch: r.epoch}
}
