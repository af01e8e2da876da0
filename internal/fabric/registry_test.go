package fabric

import (
	"fmt"
	"testing"
)

func testShards(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = Shard{Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i)}
	}
	return out
}

func marketNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("market-%04d", i)
	}
	return out
}

// TestRegistryOwnershipIsDeterministicAndSpread: every market resolves to
// exactly one shard, the answer is stable across calls and across
// identically built registries, and 1000 markets land on all of 4 shards
// with no shard hoarding more than half.
func TestRegistryOwnershipIsDeterministicAndSpread(t *testing.T) {
	r1, err := NewRegistry(testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRegistry(testShards(4))
	markets := marketNames(1000)
	counts := make(map[int]int)
	for _, m := range markets {
		s1, _ := r1.Owner(m)
		again, _ := r1.Owner(m)
		s2, _ := r2.Owner(m)
		if s1.ID != again.ID || s1.ID != s2.ID {
			t.Fatalf("ownership of %q unstable: %d, %d, %d", m, s1.ID, again.ID, s2.ID)
		}
		counts[s1.ID]++
	}
	if len(counts) != 4 {
		t.Fatalf("1000 markets used only %d of 4 shards: %v", len(counts), counts)
	}
	for id, n := range counts {
		if n > 500 {
			t.Fatalf("shard %d hoards %d of 1000 markets: %v", id, n, counts)
		}
	}
}

// TestRegistryConsistentHashingStability: adding a fifth shard must move
// only a minority of markets — the property that makes the ring worth its
// complexity over modulo hashing.
func TestRegistryConsistentHashingStability(t *testing.T) {
	r, err := NewRegistry(testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	markets := marketNames(1000)
	before := make(map[string]int, len(markets))
	for _, m := range markets {
		s, _ := r.Owner(m)
		before[m] = s.ID
	}
	epochBefore := r.Epoch()
	added, err := r.AddShard(Shard{Addr: "127.0.0.1:7999"})
	if err != nil {
		t.Fatal(err)
	}
	if added.ID != 4 {
		t.Fatalf("new shard got ID %d, want 4", added.ID)
	}
	if r.Epoch() <= epochBefore {
		t.Fatal("AddShard did not bump the epoch")
	}
	moved, movedElsewhere := 0, 0
	for _, m := range markets {
		s, _ := r.Owner(m)
		if s.ID != before[m] {
			moved++
			if s.ID != added.ID {
				movedElsewhere++
			}
		}
	}
	// Ideal is 1000/5 = 200; allow generous slack but reject modulo-style
	// reshuffles (which would move ~800).
	if moved > 450 {
		t.Fatalf("adding one shard moved %d of 1000 markets", moved)
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d markets moved between pre-existing shards on AddShard", movedElsewhere)
	}
}

// TestRegistryPinsAndEpochs: pins override the hash answer and every
// ownership mutation bumps the epoch exactly when it changes the map.
func TestRegistryPinsAndEpochs(t *testing.T) {
	r, err := NewRegistry(testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	owner, e0 := r.Owner("titanic")
	pinTo := (owner.ID + 1) % 3
	if err := r.Pin("titanic", pinTo); err != nil {
		t.Fatal(err)
	}
	got, e1 := r.Owner("titanic")
	if got.ID != pinTo {
		t.Fatalf("pinned owner = %d, want %d", got.ID, pinTo)
	}
	if e1 <= e0 {
		t.Fatalf("pin did not bump the epoch: %d -> %d", e0, e1)
	}
	r.Unpin("titanic")
	back, e2 := r.Owner("titanic")
	if back.ID != owner.ID {
		t.Fatalf("unpinned owner = %d, want hash owner %d", back.ID, owner.ID)
	}
	if e2 <= e1 {
		t.Fatal("unpin did not bump the epoch")
	}
	r.Unpin("titanic") // no-op
	if r.Epoch() != e2 {
		t.Fatal("no-op unpin bumped the epoch")
	}
	if err := r.Pin("titanic", 99); err == nil {
		t.Fatal("pin to unknown shard accepted")
	}
}

// TestRegistryMoveLifecycle walks a migration through the registry:
// BeginMove flags routes as moving without changing ownership, CommitMove
// pins the destination and bumps the epoch, AbortMove restores the
// original answer.
func TestRegistryMoveLifecycle(t *testing.T) {
	r, err := NewRegistry(testShards(3))
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := r.Owner("credit")
	to := (owner.ID + 1) % 3

	if _, err := r.BeginMove("credit", owner.ID); err == nil {
		t.Fatal("move onto the current owner accepted")
	}
	if _, err := r.BeginMove("credit", to); err != nil {
		t.Fatal(err)
	}
	if _, err := r.BeginMove("credit", to); err == nil {
		t.Fatal("double BeginMove accepted")
	}
	if err := r.Pin("credit", to); err == nil {
		t.Fatal("pin of a mid-migration market accepted")
	}
	rt := r.RouteFor("credit")
	if !rt.Moving {
		t.Fatal("route of a mid-migration market not flagged moving")
	}
	if rt.Shard.ID != to {
		t.Fatalf("moving route points at %d, want destination %d", rt.Shard.ID, to)
	}
	if cur, _ := r.Owner("credit"); cur.ID != owner.ID {
		t.Fatal("BeginMove changed ownership before commit")
	}

	eBefore := r.Epoch()
	eAfter, err := r.CommitMove("credit")
	if err != nil {
		t.Fatal(err)
	}
	if eAfter <= eBefore {
		t.Fatal("CommitMove did not bump the epoch")
	}
	if cur, _ := r.Owner("credit"); cur.ID != to {
		t.Fatalf("post-commit owner = %d, want %d", cur.ID, to)
	}
	if rt := r.RouteFor("credit"); rt.Moving {
		t.Fatal("route still flagged moving after commit")
	}
	if _, err := r.CommitMove("credit"); err == nil {
		t.Fatal("double CommitMove accepted")
	}

	// Abort path: open a second move and cancel it.
	back := owner.ID
	if _, err := r.BeginMove("credit", back); err != nil {
		t.Fatal(err)
	}
	r.AbortMove("credit")
	if cur, _ := r.Owner("credit"); cur.ID != to {
		t.Fatal("AbortMove changed ownership")
	}
	if rt := r.RouteFor("credit"); rt.Moving {
		t.Fatal("route still flagged moving after abort")
	}
}

// TestRegistryValidation pins down the constructor's error paths.
func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := NewRegistry([]Shard{{Addr: "a:1"}, {Addr: "a:1"}}); err == nil {
		t.Fatal("duplicate addresses accepted")
	}
	if _, err := NewRegistry([]Shard{{}}); err == nil {
		t.Fatal("address-less shard accepted")
	}
	r, _ := NewRegistry(testShards(2))
	if _, err := r.Shard(5); err == nil {
		t.Fatal("unknown shard ID resolved")
	}
	assigned := r.Assign(marketNames(10))
	total := 0
	for _, ms := range assigned {
		total += len(ms)
	}
	if total != 10 {
		t.Fatalf("Assign distributed %d of 10 markets", total)
	}
}

// Registry operations no production path calls (the service changes
// placement only through BeginMove and CommitMove), kept for the tests
// above to drive the map directly.

// Shard returns the entry with the given ID.
func (r *Registry) Shard(id int) (Shard, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || id >= len(r.shards) {
		return Shard{}, fmt.Errorf("fabric: no shard %d (have %d)", id, len(r.shards))
	}
	return r.shards[id], nil
}

// AddShard appends a fresh shard to the ring and bumps the epoch. Existing
// pins are untouched; unpinned markets re-hash, which by the consistent-
// hashing contract moves only ~1/(N+1) of them onto the newcomer. The
// caller is responsible for actually migrating the markets the new map
// says moved (see Rebalancer).
func (r *Registry) AddShard(s Shard) (Shard, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Addr == "" {
		return Shard{}, fmt.Errorf("fabric: shard needs an address")
	}
	for _, have := range r.shards {
		if have.Addr == s.Addr {
			return Shard{}, fmt.Errorf("fabric: duplicate shard address %q", s.Addr)
		}
	}
	s.ID = len(r.shards)
	if s.Name == "" {
		s.Name = fmt.Sprintf("shard-%d", s.ID)
	}
	r.shards = append(r.shards, s)
	r.rebuildRingLocked()
	r.epoch++
	return s, nil
}

// Pin overrides the hash placement of a market and bumps the epoch — the
// operator's explicit placement, and what CommitMove records so a migrated
// market stays where it landed.
func (r *Registry) Pin(market string, shardID int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shardID < 0 || shardID >= len(r.shards) {
		return fmt.Errorf("fabric: cannot pin %q to unknown shard %d", market, shardID)
	}
	if _, inFlight := r.moving[market]; inFlight {
		return fmt.Errorf("fabric: market %q is mid-migration; commit or abort first", market)
	}
	r.pins[market] = shardID
	r.epoch++
	return nil
}

// Unpin removes a market's explicit placement, returning it to hash
// ownership, and bumps the epoch. Unpinning an unpinned market is a no-op.
func (r *Registry) Unpin(market string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.pins[market]; !ok {
		return
	}
	delete(r.pins, market)
	r.epoch++
}

// Assign distributes a list of markets over the current map: a helper for
// boot-time registration (each shard registers the markets Assign puts on
// it) and for tests asserting distribution.
func (r *Registry) Assign(markets []string) map[int][]string {
	out := make(map[int][]string)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range markets {
		id := r.ownerLocked(m)
		out[id] = append(out[id], m)
	}
	return out
}
