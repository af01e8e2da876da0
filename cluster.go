package vflmarket

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// EngineFactory builds the engine for a market when it lands on a shard —
// at boot-time registration and again on the destination shard of a
// migration. The factory receives the shard's MarketState so the engine
// binds its valuation memo to the shard's directory (WithState), which is
// what lets a migrated market price warm from the snapshots the move
// copied over.
type EngineFactory func(market string, state *MarketState) (*Engine, error)

// Transfer is one executed (or planned) market migration, in cluster
// terms: shard IDs rather than the fabric's internal descriptors.
type Transfer struct {
	Market string
	// From and To are shard IDs.
	From int
	To   int
	// Reason is the rebalancer's justification, "" for operator-initiated
	// moves.
	Reason string
}

// clusterShard is one running shard: its fabric entry, server, listener,
// fresh state handle, and the Serve goroutine's lifecycle.
type clusterShard struct {
	shard  fabric.Shard
	server *Server
	state  *MarketState // nil for memory-only clusters
	ln     net.Listener
	cancel context.CancelFunc
	done   chan error
	// stopped marks a shard killed by StopShard: its Serve goroutine has
	// been reaped and Close must not wait on it again.
	stopped bool
}

// Cluster is a sharded market fabric in one process: N shards, each a full
// Server on its own listener and its own state directory, a consistent-
// hash registry deciding which shard owns which market, and live migration
// between them. In tests the whole fleet runs in-process; in production
// the same registry/rebalancer machinery drives remote shards (cmd/fabric
// runs one fleet per process and any vflmarket.Client follows its
// redirects).
//
// Routing is cooperative: every shard knows the registry, so a client may
// dial any shard — a hello for a market the shard does not own is answered
// with a redirect to the owner (protocol v5), and the client re-dials
// there transparently. During a migration the market's sessions are
// severed on the source, the answer degrades to a retryable busy, and the
// clients' auto-resume loop lands them on the destination once it opens —
// continuing mid-game from the checkpoints the move carried over.
type Cluster struct {
	reg     *fabric.Registry
	factory EngineFactory
	shards  []*clusterShard
	rb      *fabric.Rebalancer
	timeout time.Duration

	mu      sync.Mutex
	markets map[string]bool

	closeOnce sync.Once
	closeErr  error
}

// registryDirectory adapts the fabric registry to the Server's
// MarketDirectory. Only markets actually registered somewhere in the
// cluster resolve: a consistent-hash ring would happily name an owner for
// any string, and redirecting a client toward a shard that has never heard
// of the market either would bounce it in a loop instead of rejecting it.
type registryDirectory struct {
	c *Cluster
}

// Epoch exposes the registry's shard-map version to the Server's stats
// report (the optional interface statsReport sniffs).
func (d registryDirectory) Epoch() uint64 { return d.c.reg.Epoch() }

func (d registryDirectory) Route(market string) (Route, bool) {
	d.c.mu.Lock()
	known := d.c.markets[market]
	d.c.mu.Unlock()
	if !known {
		return Route{}, false
	}
	rt := d.c.reg.RouteFor(market)
	return Route{Addr: rt.Shard.Addr, Epoch: rt.Epoch, Moving: rt.Moving}, true
}

// NewCluster starts n in-process shards listening on loopback. baseDir is
// the fleet's state root — each shard gets its own directory under it
// (shard-0, shard-1, …), opened with a fresh handle so shards never share
// in-memory state even in one process; "" runs the fleet memory-only
// (migrations then lose checkpoints, exactly like restarting a stateless
// server). opts apply to every shard's Server; the cluster adds the state
// binding and the directory itself.
func NewCluster(n int, baseDir string, factory EngineFactory, opts ...ServerOption) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vflmarket: a cluster needs at least one shard")
	}
	if factory == nil {
		return nil, fmt.Errorf("vflmarket: a cluster needs an engine factory")
	}
	c := &Cluster{
		factory: factory,
		markets: make(map[string]bool),
		timeout: 30 * time.Second,
	}
	entries := make([]fabric.Shard, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("vflmarket: shard %d listener: %w", i, err)
		}
		sh := &clusterShard{ln: ln}
		sh.shard = fabric.Shard{ID: i, Name: fmt.Sprintf("shard-%d", i), Addr: ln.Addr().String()}
		if baseDir != "" {
			dir := filepath.Join(baseDir, fmt.Sprintf("shard-%d", i))
			ms, err := OpenMarketState(dir)
			if err != nil {
				ln.Close()
				c.Close()
				return nil, err
			}
			sh.state = ms
			sh.shard.StateDir = ms.Dir()
		}
		c.shards = append(c.shards, sh)
		entries = append(entries, sh.shard)
	}
	reg, err := fabric.NewRegistry(entries)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.reg = reg
	c.rb = fabric.NewRebalancer(reg, c.fetchStats)

	for _, sh := range c.shards {
		shOpts := append(append([]ServerOption(nil), opts...), WithDirectory(registryDirectory{c}))
		if sh.state != nil {
			shOpts = append(shOpts, WithMarketState(sh.state))
		}
		sh.server = NewServer(shOpts...)
		ctx, cancel := context.WithCancel(context.Background())
		sh.cancel = cancel
		sh.done = make(chan error, 1)
		go func(sh *clusterShard, ctx context.Context) {
			sh.done <- sh.server.Serve(ctx, sh.ln)
		}(sh, ctx)
	}
	return c, nil
}

// fetchStats is the rebalancer's StatsFunc: the over-the-wire admin read
// against a shard's address — the same path an out-of-process planner
// would use, so the in-process cluster exercises it too.
func (c *Cluster) fetchStats(ctx context.Context, shard fabric.Shard) (*wire.StatsReport, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", shard.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return wire.FetchStats(ctx, conn, c.timeout)
}

// Register places a market on the shard the registry assigns it and builds
// its engine there via the cluster's factory.
func (c *Cluster) Register(market string) error {
	owner, _ := c.reg.Owner(market)
	sh := c.shards[owner.ID]
	eng, err := c.factory(market, sh.state)
	if err != nil {
		return fmt.Errorf("vflmarket: build engine for %q: %w", market, err)
	}
	if err := sh.server.Register(market, eng); err != nil {
		return err
	}
	c.mu.Lock()
	c.markets[market] = true
	c.mu.Unlock()
	return nil
}

// Markets lists every market registered in the cluster, with its current
// owner shard ID.
func (c *Cluster) Markets() map[string]int {
	c.mu.Lock()
	names := make([]string, 0, len(c.markets))
	for m := range c.markets {
		names = append(names, m)
	}
	c.mu.Unlock()
	out := make(map[string]int, len(names))
	for _, m := range names {
		owner, _ := c.reg.Owner(m)
		out[m] = owner.ID
	}
	return out
}

// Addrs lists the shard addresses in ID order. Any of them is a valid dial
// target for any market: wrong doors redirect.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.shard.Addr
	}
	return out
}

// Epoch returns the registry's current shard-map version.
func (c *Cluster) Epoch() uint64 { return c.reg.Epoch() }

// Shard returns the server behind one shard — for tests and in-process
// operators that want direct metric access; remote operators use Stats.
func (c *Cluster) Shard(id int) (*Server, error) {
	if id < 0 || id >= len(c.shards) {
		return nil, fmt.Errorf("vflmarket: no shard %d (have %d)", id, len(c.shards))
	}
	return c.shards[id].server, nil
}

// Dial connects a client to the market's owner shard. Dialing any shard
// address directly also works — the fabric redirects — but going straight
// to the owner saves the hop. Every shard address rides along as a
// fallback, so the client survives its owner dying mid-session: the
// rotation lands it on a survivor, whose redirect names the new owner.
func (c *Cluster) Dial(ctx context.Context, market string, opts ...DialOption) (*Client, error) {
	owner, _ := c.reg.Owner(market)
	base := []DialOption{WithMarket(market), WithFallbackAddrs(c.Addrs()...)}
	return Dial(ctx, owner.Addr, append(base, opts...)...)
}

// Stats polls every shard's metrics snapshot over the wire, keyed by shard
// ID. Unreachable shards are omitted.
func (c *Cluster) Stats(ctx context.Context) map[int]*StatsReport {
	out := make(map[int]*StatsReport)
	for _, sh := range c.shards {
		if rep, err := c.fetchStats(ctx, sh.shard); err == nil {
			out[sh.shard.ID] = rep
		}
	}
	return out
}

// Health probes every shard's admin endpoint over the wire — a real
// KindStats exchange, not an in-process check, so it sees exactly what a
// remote operator would: a wedged or dead shard reads false even while
// its process object still exists. Each probe is bounded at 2 seconds
// (tighter if ctx expires sooner).
func (c *Cluster) Health(ctx context.Context) map[int]bool {
	out := make(map[int]bool, len(c.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *clusterShard) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			_, err := c.fetchStats(probeCtx, sh.shard)
			mu.Lock()
			out[sh.shard.ID] = err == nil
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	return out
}

// StopShard kills one shard abruptly: the listener closes, every live
// connection — multiplexed and serial — is hard-severed, and the Serve
// goroutine is reaped. In-flight sessions die with transport errors, the
// shard's final durable state flushes on the way down, and the registry
// still names the corpse as owner until Failover re-homes its markets.
// This is the failover drill's kill switch.
func (c *Cluster) StopShard(id int) error {
	if id < 0 || id >= len(c.shards) {
		return fmt.Errorf("vflmarket: no shard %d (have %d)", id, len(c.shards))
	}
	sh := c.shards[id]
	if sh.stopped {
		return nil
	}
	if sh.cancel != nil {
		sh.cancel()
	}
	sh.server.Sever()
	if sh.done != nil {
		<-sh.done
		sh.done = nil
	}
	sh.stopped = true
	return nil
}

// Failover re-homes every market owned by a dead shard onto the survivors,
// round-robin in market-name order: each market is marked moving in the
// registry (stragglers back off on busy), its durable snapshots are copied
// out of the dead shard's state directory, an engine opens warm on the
// survivor, and the move commits — after which redirects point at the new
// owner and severed clients' resume loops land there, continuing
// mid-bargain from the last settled checkpoint. Unlike Migrate there is no
// source eviction: the owner is already dead, its sessions already
// severed. The executed transfers are returned; an error aborts the
// in-flight move (the registry re-points at the dead shard — no better
// owner exists) and returns the moves completed so far.
func (c *Cluster) Failover(ctx context.Context, dead int) ([]Transfer, error) {
	if dead < 0 || dead >= len(c.shards) {
		return nil, fmt.Errorf("vflmarket: no shard %d (have %d)", dead, len(c.shards))
	}
	var survivors []*clusterShard
	for _, sh := range c.shards {
		if sh.shard.ID != dead && !sh.stopped {
			survivors = append(survivors, sh)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("vflmarket: failover of shard %d: no surviving shards", dead)
	}
	c.mu.Lock()
	var doomed []string
	for m := range c.markets {
		if owner, _ := c.reg.Owner(m); owner.ID == dead {
			doomed = append(doomed, m)
		}
	}
	c.mu.Unlock()
	sort.Strings(doomed)

	src := c.shards[dead]
	out := make([]Transfer, 0, len(doomed))
	for i, market := range doomed {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		dst := survivors[i%len(survivors)]
		if _, err := c.reg.BeginMove(market, dst.shard.ID); err != nil {
			return out, err
		}
		if err := copyMarketSnapshots(src.shard.StateDir, dst.shard.StateDir, market); err != nil {
			c.reg.AbortMove(market)
			return out, fmt.Errorf("vflmarket: failover %q: copy state: %w", market, err)
		}
		eng, err := c.factory(market, dst.state)
		if err != nil {
			c.reg.AbortMove(market)
			return out, fmt.Errorf("vflmarket: failover %q: build engine: %w", market, err)
		}
		if err := dst.server.Register(market, eng); err != nil {
			c.reg.AbortMove(market)
			return out, fmt.Errorf("vflmarket: failover %q: open on shard %d: %w", market, dst.shard.ID, err)
		}
		if _, err := c.reg.CommitMove(market); err != nil {
			return out, err
		}
		out = append(out, Transfer{Market: market, From: dead, To: dst.shard.ID, Reason: "failover"})
	}
	return out, nil
}

// Migrate moves a market onto the given shard live: mark it moving in the
// registry (stragglers get a retryable busy), evict it from the source —
// severing in-flight sessions, which their clients auto-resume — flush and
// copy its durable snapshots to the destination's directory, open it warm
// there, and commit the move (pin + epoch bump), after which redirects
// point at the new owner. A failed migration is rolled back onto the
// source shard.
func (c *Cluster) Migrate(ctx context.Context, market string, to int) error {
	c.mu.Lock()
	known := c.markets[market]
	c.mu.Unlock()
	if !known {
		return fmt.Errorf("vflmarket: unknown market %q", market)
	}
	from, _ := c.reg.Owner(market)
	if _, err := c.reg.BeginMove(market, to); err != nil {
		return err
	}
	src, dst := c.shards[from.ID], c.shards[to]

	rollback := func(cause error) error {
		c.reg.AbortMove(market)
		if eng, ferr := c.factory(market, src.state); ferr == nil {
			_ = src.server.Register(market, eng)
		}
		return cause
	}

	// Evict: sever the market's sessions and flush its final checkpoints.
	// From here until the destination registers, redialing clients are told
	// "busy, retry" — their backoff bridges the gap.
	if err := src.server.Unregister(market); err != nil {
		return rollback(fmt.Errorf("vflmarket: migrate %q: evict: %w", market, err))
	}
	if err := copyMarketSnapshots(src.shard.StateDir, dst.shard.StateDir, market); err != nil {
		return rollback(fmt.Errorf("vflmarket: migrate %q: copy state: %w", market, err))
	}
	eng, err := c.factory(market, dst.state)
	if err != nil {
		return rollback(fmt.Errorf("vflmarket: migrate %q: build engine: %w", market, err))
	}
	if err := dst.server.Register(market, eng); err != nil {
		return rollback(fmt.Errorf("vflmarket: migrate %q: open on shard %d: %w", market, to, err))
	}
	if _, err := c.reg.CommitMove(market); err != nil {
		return err
	}
	return ctx.Err()
}

// Rebalance runs one planning pass over live shard stats and executes the
// planned transfers (at most one per pass — see fabric.Rebalancer). The
// executed transfers are returned; an empty slice means the fleet is
// balanced.
func (c *Cluster) Rebalance(ctx context.Context) ([]Transfer, error) {
	plans := c.rb.Plan(ctx)
	out := make([]Transfer, 0, len(plans))
	for _, p := range plans {
		if err := c.Migrate(ctx, p.Market, p.To.ID); err != nil {
			return out, err
		}
		out = append(out, Transfer{Market: p.Market, From: p.From.ID, To: p.To.ID, Reason: p.Reason})
	}
	return out, nil
}

// Close shuts the fleet down: every shard's Serve unwinds gracefully
// (in-flight sessions finish, state flushes). The first unexpected error
// is returned; repeated calls return the same answer.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		for _, sh := range c.shards {
			if sh.cancel != nil {
				sh.cancel()
			}
		}
		for _, sh := range c.shards {
			if sh.done != nil {
				if err := <-sh.done; err != nil && err != context.Canceled && c.closeErr == nil {
					c.closeErr = err
				}
			} else if sh.ln != nil {
				sh.ln.Close()
			}
		}
	})
	return c.closeErr
}

// copyMarketSnapshots carries a market's durable snapshots between shard
// state directories: its estimator checkpoints (estimators/<slug>/), its
// Paillier key (keys/<slug>.snap), and the shared oracle memo tree
// (oracle/ — keyed by dataset config, not market, so extra entries are
// harmless and warm the destination). Same or empty directories are a
// no-op: the shards already share (or have no) state.
func copyMarketSnapshots(srcDir, dstDir, market string) error {
	if srcDir == "" || dstDir == "" || srcDir == dstDir {
		return nil
	}
	slug := marketSlug(market)
	trees := []string{
		filepath.Join("estimators", slug),
		"oracle",
	}
	for _, tree := range trees {
		root := filepath.Join(srcDir, tree)
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, rerr := filepath.Rel(srcDir, path)
			if rerr != nil {
				return rerr
			}
			return copyFile(path, filepath.Join(dstDir, rel))
		})
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	key := filepath.Join("keys", slug+".snap")
	if _, err := os.Stat(filepath.Join(srcDir, key)); err == nil {
		if err := copyFile(filepath.Join(srcDir, key), filepath.Join(dstDir, key)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp := dst + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(tmp)
		return err
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, dst)
}
