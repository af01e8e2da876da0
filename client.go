package vflmarket

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/wire"
)

// DialOption configures a Client at Dial time.
type DialOption func(*dialConfig)

type dialConfig struct {
	market      string
	dialTimeout time.Duration
	ioTimeout   time.Duration
	session     *SessionConfig
	gains       GainProvider
	imperfect   *ImperfectParams
	identity    string
	backoff     RetryPolicy
	breaker     BreakerPolicy
	fallbacks   []string
}

// WithRetryPolicy sets the client's shared retry schedule (see
// RetryPolicy): it paces the initial Dial, Stats reads, failover address
// rotation, session retries, and the imperfect-session resume loop.
// Zero-valued fields keep their defaults.
func WithRetryPolicy(p RetryPolicy) DialOption {
	return func(c *dialConfig) { c.backoff = p }
}

// WithCircuitBreaker tunes the per-address circuit breakers guarding the
// connection pool: after Threshold consecutive dial failures an address
// is suppressed (dials fast-fail with ErrCircuitOpen) until the Cooldown
// admits a half-open probe. Zero-valued fields keep the defaults
// (threshold 5, cooldown 1s).
func WithCircuitBreaker(p BreakerPolicy) DialOption {
	return func(c *dialConfig) { c.breaker = p }
}

// WithFallbackAddrs seeds the client with additional server addresses to
// rotate to when its current address stops answering — on a sharded
// fabric, any live shard redirects the client to its market's owner, so
// listing every shard makes the client survive the death of the one it
// happens to be pointed at. Redirect targets learned at runtime join the
// same rotation set automatically.
func WithFallbackAddrs(addrs ...string) DialOption {
	return func(c *dialConfig) { c.fallbacks = append(c.fallbacks, addrs...) }
}

// WithMarket names the market to bargain in on a multi-market server. ""
// (the default) picks the server's default market.
func WithMarket(name string) DialOption { return func(c *dialConfig) { c.market = name } }

// WithDialTimeout bounds each connection attempt. 0 means no limit beyond
// the dial context's own deadline.
func WithDialTimeout(d time.Duration) DialOption { return func(c *dialConfig) { c.dialTimeout = d } }

// WithSessionTimeout bounds every read and write within a session: a
// stalled server fails the session with an ErrPeerTimeout-wrapped error
// instead of hanging it. On the multiplexed wire the bound is a
// per-session receive timer, so one stalled session cannot stall its
// siblings on the same connection. The default is 30 seconds; <= 0 keeps
// the default.
func WithSessionTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.ioTimeout = d
		}
	}
}

// WithSession installs the client's session template — the task party's
// private parameters (u, budget, target gain, tolerances, seed) that
// Client.Bargain merges BargainOptions into, exactly as Engine.Bargain
// does with its engine template. Typically engine.Session() of a local
// Engine built with the same dataset and seed as the server's.
func WithSession(cfg SessionConfig) DialOption {
	return func(c *dialConfig) { cp := cfg; c.session = &cp }
}

// WithGains installs the client's gain provider: the task party's side of
// Step 3, realizing the VFL course for each offered bundle. Typically
// engine.CatalogGains() of a local Engine when both parties pre-trained
// with the third party, or a live trainer in production.
func WithGains(g GainProvider) DialOption { return func(c *dialConfig) { c.gains = g } }

// WithImperfect pre-sets the imperfect-regime knobs (exploration rounds N,
// candidate-pool size, replay budget) that BargainImperfect plays with.
// Zero-valued knobs resolve to the paper defaults, so dialing without this
// option still allows imperfect sessions.
func WithImperfect(p ImperfectParams) DialOption {
	return func(c *dialConfig) { cp := p; c.imperfect = &cp }
}

// WithIdentity names the client to the server for imperfect sessions: up
// to 64 characters of [A-Za-z0-9_-]. Against a state-bound server, the
// identity keys the server-side estimator checkpoints, which buys the
// client automatic session resume — if the connection (or the server)
// dies mid-game, BargainImperfect retries with the last acknowledged
// round and both endpoints continue from their checkpoints, bit-identical
// to an uninterrupted run, instead of re-exploring from round one. Without
// an identity neither endpoint checkpoints: a failed session surfaces its
// error, and no round pays for state nothing could resume from. The
// identity should be unique per concurrent session: two live sessions
// sharing one identity overwrite each other's checkpoints.
// BargainImperfectBatch derives a distinct identity per spec ("<id>-<i>")
// for exactly that reason.
func WithIdentity(id string) DialOption { return func(c *dialConfig) { c.identity = id } }

// Client is the task party's connection point to a market Server. A Client
// is safe for concurrent use: it keeps one warm multiplexed connection per
// server address, and every Bargain call opens one session stream over it
// — dialing and handshaking happen once per connection, not per session.
// The session itself mirrors Engine.Bargain's contract exactly (options
// merging over the template session, observers, cancellation between
// rounds) over the network.
//
// Against a Paillier-settling server the client keeps a pool of
// precomputed randomizers (secure.DefaultNoisePool r^n mod n² factors for
// the server's key), so a closing round's encryption, the one a secure
// session makes, costs one modular multiplication in steady state. All of
// the client's sessions share it; Close releases its workers.
type Client struct {
	cfg   dialConfig
	hello *wire.Hello
	noise *secure.NoiseSource

	// mu guards addr and the connection pool: against a sharded fabric the
	// client learns the market's current home from redirect answers and
	// re-points itself, so concurrent Bargain calls must read a coherent
	// address and share the warm connection at it.
	mu       sync.Mutex
	addr     string
	pool     map[string]*wire.MuxConn // at most one live connection per addr
	dialing  map[string]*dialCall     // the one in-flight dial per addr, shared by every caller that found no connection
	breakers map[string]*breaker
	known    []string // every address seen (dial, fallbacks, redirects), in discovery order — the failover rotation set
}

// dialCall is one in-flight dial that every caller needing the same
// address waits on; done closes once mc/err are set.
type dialCall struct {
	done chan struct{}
	mc   *wire.MuxConn
	err  error
	// abandoned marks a dial that failed because its own caller's context
	// ended: the waiters, whose contexts still run, dial again.
	abandoned bool
}

// noteAddr adds addr to the failover rotation set, once.
func (c *Client) noteAddr(addr string) {
	if addr == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.known {
		if a == addr {
			return
		}
	}
	c.known = append(c.known, addr)
}

// nextAddr returns the first known address not yet tried this attempt.
func (c *Client) nextAddr(tried map[string]bool) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.known {
		if !tried[a] {
			return a, true
		}
	}
	return "", false
}

// Addr returns the address the client currently dials — the Dial address
// until a shard redirect re-points it at the market's owner.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

func (c *Client) setAddr(addr string) {
	c.mu.Lock()
	c.addr = addr
	c.mu.Unlock()
}

// Dial connects to the service at addr and returns a Client bound to it:
// one TCP connection, whose multiplexed handshake doubles as the listing
// probe — the server's markets, bundle listing, and settlement mode come
// back on the connection-level Hello (failing fast on unknown markets or
// codec mismatches), and the handshaked connection stays warm in the
// client's pool for the sessions that follow.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := dialConfig{ioTimeout: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if err := wire.ValidateClientID(cfg.identity); err != nil {
		return nil, fmt.Errorf("vflmarket: %w", err)
	}
	c := &Client{
		addr:     addr,
		cfg:      cfg,
		pool:     make(map[string]*wire.MuxConn),
		dialing:  make(map[string]*dialCall),
		breakers: make(map[string]*breaker),
	}
	c.noteAddr(addr)
	for _, a := range cfg.fallbacks {
		c.noteAddr(a)
	}
	// The initial connect retries transport-class failures (a shard mid
	// restart, a connection reset in the handshake) on the shared policy,
	// capped tighter than a session's resume loop — a Dial against a truly
	// dead fleet should fail in a bounded handful of attempts. Busy and
	// rejection answers come from a live server and surface immediately.
	var mc *wire.MuxConn
	err := cfg.backoff.do(ctx, 3, transportErr, func() (err error) {
		mc, err = c.connectMux(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.hello = mc.Hello()
	// Against a Paillier-settling server, start the shared randomizer pool
	// for its key: every session's settlement encryptions draw from it, so
	// steady-state secure settlement costs one mulmod per round.
	if c.hello.Secure && len(c.hello.PubN) > 0 {
		pk := secure.NewPublicKey(new(big.Int).SetBytes(c.hello.PubN))
		c.noise = secure.NewNoiseSource(pk, 0, 0, rand.Reader)
	}
	return c, nil
}

// Close releases the client's background resources: the warm connection
// pool and the secure-settlement randomizer pool (when the server settles
// under Paillier). Bargaining after Close still works — the next session
// dials and pools a fresh connection — so Close is safe to call between
// bursts as well as at the end.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.pool
	c.pool = make(map[string]*wire.MuxConn)
	c.mu.Unlock()
	for _, mc := range conns {
		mc.Close()
	}
	if c.noise != nil {
		c.noise.Close()
	}
}

// maxRedirectHops bounds one connection attempt's redirect chain. A
// healthy fabric answers in one hop; the bound is a loop guard against a
// misconfigured directory that points shards at each other.
const maxRedirectHops = 8

// dialMux dials addr and performs the multiplexed handshake, carrying the
// client's market as the connection-level routing hint. The server's
// Hello (the listing probe) is retained on the returned connection.
func (c *Client) dialMux(ctx context.Context, addr string) (*wire.MuxConn, error) {
	d := net.Dialer{Timeout: c.cfg.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vflmarket: dial %s: %w", addr, err)
	}
	// Poking the deadline on cancellation unblocks the handshake read.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	mc, _, err := wire.OpenMux(conn, wire.CodecBinary, wire.ClientHello{Market: c.cfg.market, ListOnly: true}, c.cfg.ioTimeout)
	stop()
	if err != nil {
		conn.Close()
		return nil, err
	}
	return mc, nil
}

// muxFor returns the live pooled connection to addr, or dials one when
// there is none. Callers that find no connection share one in-flight dial,
// each waiting under its own ctx, so recovering a dead connection costs one
// dial however many sessions were waiting on it. Every dial passes through
// addr's circuit breaker: a tripped breaker fast-fails with ErrCircuitOpen
// instead of hammering a dead address.
func (c *Client) muxFor(ctx context.Context, addr string) (*wire.MuxConn, error) {
	for {
		c.mu.Lock()
		if mc := c.pool[addr]; mc != nil {
			if mc.Err() == nil {
				c.mu.Unlock()
				return mc, nil
			}
			delete(c.pool, addr) // fail() already closed the socket
		}
		if d := c.dialing[addr]; d != nil {
			c.mu.Unlock()
			select {
			case <-d.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("vflmarket: dial %s: %w", addr, context.Cause(ctx))
			}
			if d.abandoned {
				continue
			}
			return d.mc, d.err
		}
		d := &dialCall{done: make(chan struct{})}
		c.dialing[addr] = d
		c.mu.Unlock()

		d.mc, d.err = c.dialBreaker(ctx, addr)
		d.abandoned = d.err != nil && ctx.Err() != nil
		c.mu.Lock()
		delete(c.dialing, addr)
		if d.err == nil {
			c.pool[addr] = d.mc
		}
		c.mu.Unlock()
		close(d.done)
		return d.mc, d.err
	}
}

// dialBreaker dials addr through its circuit breaker and reports the
// outcome to it.
func (c *Client) dialBreaker(ctx context.Context, addr string) (*wire.MuxConn, error) {
	br := c.breakerFor(addr)
	if berr := br.allow(); berr != nil {
		return nil, fmt.Errorf("%w (%s)", berr, addr)
	}
	mc, err := c.dialMux(ctx, addr)
	if err == nil {
		br.success()
	} else if ctx.Err() == nil && wire.IsTransportError(err) {
		// Only pipe-level failures count against the address: redirects,
		// busy, and rejection envelopes are a live server answering, and a
		// cancelled dial says nothing about its health.
		br.failure()
	} else {
		// A non-transport failure (cancellation, redirect, busy…) neither
		// opens nor closes the breaker, but it must release a claimed
		// half-open probe slot so the next dial can still probe.
		br.releaseProbe()
	}
	return mc, err
}

// dropConn evicts a dead connection from the pool and closes it.
func (c *Client) dropConn(dead *wire.MuxConn) {
	c.mu.Lock()
	for addr, mc := range c.pool {
		if mc == dead {
			delete(c.pool, addr)
		}
	}
	c.mu.Unlock()
	dead.Close()
}

// connectMux returns a warm connection to the client's current address,
// transparently following shard redirects at the connection level: a
// fabric shard that does not own the client's market answers the mux
// handshake with its owner's address, and the client re-dials there and
// remembers the address — populating the pool at the market's true home.
//
// A dead address does not end the attempt: the client rotates through its
// known addresses (the dial address, WithFallbackAddrs seeds, and every
// redirect target it has seen), each tried at most once per call. On a
// fabric this is shard failover from the client's seat — any surviving
// shard routes it to the market's new owner.
func (c *Client) connectMux(ctx context.Context) (*wire.MuxConn, error) {
	tried := make(map[string]bool)
	redirects := 0
	for {
		addr := c.Addr()
		mc, err := c.muxFor(ctx, addr)
		if err == nil {
			return mc, nil
		}
		var rd *wire.RedirectError
		if errors.As(err, &rd) && rd.Addr != "" {
			if redirects >= maxRedirectHops {
				return nil, err
			}
			redirects++
			c.noteAddr(rd.Addr)
			c.setAddr(rd.Addr)
			continue
		}
		// Busy and rejection are a live server's word — surface them. So is
		// the caller's cancellation.
		if !transportErr(err) || ctx.Err() != nil {
			return nil, err
		}
		tried[addr] = true
		next, ok := c.nextAddr(tried)
		if !ok {
			return nil, err
		}
		c.setAddr(next)
	}
}

// openSession opens one session stream over a pooled connection, following
// session-level redirects (the market migrated after the connection
// handshook) and retrying once on a fresh connection when a pooled one
// turns out to have died since it was last used.
func (c *Client) openSession(ctx context.Context, hs wire.ClientHello) (*wire.MuxSession, *wire.Hello, error) {
	redialed := false
	for hop := 0; ; {
		mc, err := c.connectMux(ctx)
		if err != nil {
			return nil, nil, err
		}
		s, hello, err := mc.Open(ctx, hs, c.cfg.ioTimeout)
		if err == nil {
			return s, hello, nil
		}
		if mc.Err() != nil && !redialed {
			// The pooled connection died idle (server restart, network cut);
			// one retry lands on a freshly dialed replacement.
			redialed = true
			c.dropConn(mc)
			continue
		}
		var rd *wire.RedirectError
		if errors.As(err, &rd) && rd.Addr != "" && hop < maxRedirectHops {
			hop++
			c.noteAddr(rd.Addr)
			c.setAddr(rd.Addr)
			continue
		}
		return nil, nil, err
	}
}

// Stats fetches the server's admin metrics snapshot — server counters,
// per-market counters, and the shard-map epoch on fabric shards — over a
// stats stream on a pooled connection; no extra dial. The fabric's
// rebalancer reads shards the same way on its own fresh connections.
//
// Each attempt's receive waits under the session IO timeout and watches
// ctx, so a probe against a stalled shard returns when the caller's
// budget expires. Transport-dead connections are retried on the shared
// policy, capped at three attempts.
func (c *Client) Stats(ctx context.Context) (*StatsReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rep *StatsReport
	err := c.cfg.backoff.do(ctx, 3, transportErr, func() error {
		mc, err := c.connectMux(ctx)
		if err != nil {
			return err
		}
		if rep, err = mc.Stats(ctx, c.cfg.ioTimeout); err != nil && mc.Err() != nil {
			c.dropConn(mc)
		}
		return err
	})
	if err != nil {
		return nil, wrapCtx(ctx, err)
	}
	return rep, nil
}

// Market returns the resolved market name this client bargains in.
func (c *Client) Market() string { return c.hello.Market }

// Markets lists every market the server serves.
func (c *Client) Markets() []string { return append([]string(nil), c.hello.Markets...) }

// Modes lists the information regimes the server serves ("perfect", and
// "imperfect" unless the server settles under Paillier).
func (c *Client) Modes() []string { return append([]string(nil), c.hello.Modes...) }

// Listing returns the market's public bundle listing (features only; the
// reserved prices stay private to the data party).
func (c *Client) Listing() []BundleInfo { return append([]BundleInfo(nil), c.hello.Bundles...) }

// Secure reports whether the server settles under Paillier encryption; the
// client handles either mode transparently.
func (c *Client) Secure() bool { return c.hello.Secure }

// Bargain plays one bargaining session against the server with the dial
// template session (WithSession), cancellable between rounds through ctx.
// It mirrors Engine.Bargain exactly: BargainOptions merge onto the
// template the same way, observers stream the same rounds and outcome, and
// — because the networked client runs the identical game loop — the Result
// is bit-identical to the in-process one for the same seed and catalog
// (for the default strategic strategies, whose randomness is all
// task-party-side).
func (c *Client) Bargain(ctx context.Context, opts BargainOptions) (*Result, error) {
	if c.cfg.session == nil {
		return nil, fmt.Errorf("vflmarket: Bargain needs a session template: Dial with WithSession")
	}
	// Data-party behavior lives on the server: its strategy and cost model
	// come from the engine registered there, not from this call. Rejecting
	// the options beats silently bargaining against a different seller
	// than the caller asked for.
	if opts.DataGreed != DataStrategic || opts.DataCost != (CostModel{}) {
		return nil, fmt.Errorf("vflmarket: data-party options (DataGreed, DataCost) are server-side over the wire; configure them on the server's engine")
	}
	cfg := mergeBargainOptions(*c.cfg.session, opts)
	return c.BargainWith(ctx, cfg, c.cfg.gains, opts.Observers...)
}

// BargainImperfect plays one imperfect-information session against the
// server with the dial template session, mirroring Engine.BargainImperfect
// over the wire: the §3.5 estimation-based game with exploration rounds,
// online-learned ΔG estimators on both endpoints, and experience replay.
// The regime knobs come from WithImperfect (paper defaults otherwise);
// BargainOptions merge onto the template exactly as in Bargain.
//
// For mirrored engines the ImperfectResult — trace, outcome, and both MSE
// learning curves — is bit-identical to the in-process run with the same
// seed: dial with WithSession(engine.SessionImperfect()) to match
// Engine.BargainImperfect. Imperfect sessions settle in clear (the
// realized gain is the data party's training signal), so Paillier-settling
// servers refuse them.
func (c *Client) BargainImperfect(ctx context.Context, opts BargainOptions) (*ImperfectResult, error) {
	if c.cfg.session == nil {
		return nil, fmt.Errorf("vflmarket: BargainImperfect needs a session template: Dial with WithSession")
	}
	if opts.DataGreed != DataStrategic || opts.DataCost != (CostModel{}) {
		return nil, fmt.Errorf("vflmarket: data-party options (DataGreed, DataCost) are server-side over the wire; configure them on the server's engine")
	}
	var params ImperfectParams
	if c.cfg.imperfect != nil {
		params = *c.cfg.imperfect
	}
	cfg := mergeBargainOptions(*c.cfg.session, opts)
	return c.BargainImperfectWith(ctx, cfg, params, c.cfg.gains, opts.Observers...)
}

// BargainImperfectWith plays one imperfect-information session with a
// fully custom session configuration and explicit regime knobs, mirroring
// Engine.BargainImperfectWith. gains may be nil when the Client was dialed
// with WithGains.
func (c *Client) BargainImperfectWith(ctx context.Context, cfg SessionConfig, params ImperfectParams, gains GainProvider, obs ...RoundObserver) (*ImperfectResult, error) {
	return c.bargainImperfect(ctx, cfg, params, gains, c.cfg.identity, obs)
}

// bargainImperfect is the shared imperfect-session driver behind
// BargainImperfectWith and BargainImperfectBatch: one auto-resume loop
// over session streams opened on pooled connections, under the given
// identity. Only an identified session checkpoints its rounds; without an
// identity it plays one attempt and takes no checkpoints.
func (c *Client) bargainImperfect(ctx context.Context, cfg SessionConfig, params ImperfectParams, gains GainProvider, identity string, obs []RoundObserver) (*ImperfectResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	params = params.WithDefaults()
	// The handshake advertises the regime and the mutually known §3.5
	// parameters, so the remote data party constructs the exact
	// estimation-based seller an in-process run would.
	hs := wire.ClientHello{
		Market: c.cfg.market,
		Mode:   wire.ModeImperfect,
		Imperfect: &wire.ImperfectHello{
			Seed:              cfg.Seed,
			Target:            cfg.TargetGain,
			ExplorationRounds: params.ExplorationRounds,
			ReplaySteps:       params.ReplaySteps,
			ClientID:          identity,
		},
	}
	// An identified client bargains under the auto-resume policy: every
	// settled round checkpoints the buyer's estimator, and a transport
	// failure retries presenting the last acknowledged round, so the
	// session continues from its checkpoints instead of starting over.
	// Without an identity a failure surfaces immediately, and since nothing
	// could resume from them the session takes no checkpoints at all. The
	// waits between attempts follow the (configurable) capped-exponential
	// schedule. A retry reuses the pooled warm connection when it survived
	// the failure (a per-session eviction severs only the stream) and
	// dials a replacement only when the connection itself died — resume no
	// longer pays a dial and handshake unless it must.
	attempts := 1
	if identity != "" {
		attempts = 0 // the policy's full budget
	}
	var res *ImperfectResult
	var last *core.ImperfectCheckpoint
	// A typed rejection is final — the server told us why, and retrying
	// replays the same refusal. Everything else (transport death, busy,
	// timeout) gets another attempt.
	notRejected := func(err error) bool { return !errors.Is(err, wire.ErrRejected) }
	err := c.cfg.backoff.do(ctx, attempts, notRejected, func() error {
		ck := last
		hs.Imperfect.ResumeRound = 0
		if ck != nil {
			hs.Imperfect.ResumeRound = ck.Round
		}
		return c.withSession(ctx, gains, hs, func(ctx context.Context, tc *wire.TaskClient, codec wire.Codec, hello *wire.Hello) error {
			if identity != "" {
				tc.Checkpoint = func(k *core.ImperfectCheckpoint) { last = k }
			}
			var rerr error
			if ck != nil {
				res, rerr = tc.ResumeImperfectCodec(ctx, codec, hello, params, ck)
			} else {
				res, rerr = tc.BargainImperfectCodec(ctx, codec, hello, params)
			}
			return rerr
		}, cfg, obs)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BargainWith plays one session with a fully custom session configuration,
// mirroring Engine.BargainWith. gains may be nil when the Client was
// dialed with WithGains.
//
// Perfect-information sessions are stateless on the server and
// deterministic for a given seed, so a session killed by a transport
// fault, a busy refusal, or a mid-session eviction is simply replayed
// from scratch on the retry policy — the result of a retried session is
// bit-identical to one that never failed. Rejections and cancellation
// surface immediately.
func (c *Client) BargainWith(ctx context.Context, cfg SessionConfig, gains GainProvider, obs ...RoundObserver) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res *Result
	err := c.cfg.backoff.do(ctx, 0, retryableErr, func() error {
		return c.withSession(ctx, gains, wire.ClientHello{Market: c.cfg.market},
			func(ctx context.Context, tc *wire.TaskClient, codec wire.Codec, hello *wire.Hello) (err error) {
				res, err = tc.BargainCodec(ctx, codec, hello)
				return err
			}, cfg, obs)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BargainBatch plays one perfect-information session per spec across a
// bounded worker pool, every session a stream over the client's pooled
// multiplexed connections, and returns the results in spec order. It is
// the wire mirror of Engine.BargainBatch, with the identical
// seed-derivation convention: a spec with neither a Seed nor a seeded
// Session plays on a seed derived from BatchOptions.Seed and the spec's
// index — so against a mirrored server the result slice is bit-identical
// to the in-process batch, no matter how many connections the sessions
// multiplexed over.
//
// The first session error — including ctx cancellation, checked between
// rounds of every in-flight session — abandons the rest of the batch;
// unfinished slots are left nil and the error is returned alongside the
// partial results.
func (c *Client) BargainBatch(ctx context.Context, specs []BatchSpec, opts BatchOptions) ([]*Result, error) {
	return core.Batch(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) (*Result, error) {
		cfg, err := c.batchConfig(specs[i], opts, i)
		if err != nil {
			return nil, err
		}
		return c.BargainWith(ctx, cfg, c.cfg.gains, specs[i].Observer)
	})
}

// BargainImperfectBatch plays one imperfect-information session per spec
// across a bounded worker pool over the pooled connections, mirroring a
// loop of Engine.BargainImperfectWith calls under BargainBatch's
// seed-derivation convention. The regime knobs come from WithImperfect
// (paper defaults otherwise). When the client was dialed with an identity,
// each spec bargains as "<identity>-<i>" so concurrent sessions keep
// distinct server-side checkpoints and the auto-resume policy covers every
// session of the batch independently.
func (c *Client) BargainImperfectBatch(ctx context.Context, specs []BatchSpec, opts BatchOptions) ([]*ImperfectResult, error) {
	var params ImperfectParams
	if c.cfg.imperfect != nil {
		params = *c.cfg.imperfect
	}
	return core.Batch(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) (*ImperfectResult, error) {
		cfg, err := c.batchConfig(specs[i], opts, i)
		if err != nil {
			return nil, err
		}
		identity := c.cfg.identity
		if identity != "" {
			identity = fmt.Sprintf("%s-%d", identity, i)
		}
		return c.bargainImperfect(ctx, cfg, params, c.cfg.gains, identity, []RoundObserver{specs[i].Observer})
	})
}

// batchConfig resolves one batch spec against the dial template with the
// engine's resolveBatchConfig, so a client batch and an engine batch with
// the same specs play the same sessions.
func (c *Client) batchConfig(sp BatchSpec, opts BatchOptions, i int) (SessionConfig, error) {
	var tmpl SessionConfig
	switch {
	case c.cfg.session != nil:
		tmpl = *c.cfg.session
	case sp.Session == nil:
		return SessionConfig{}, fmt.Errorf("vflmarket: batch spec %d needs a session: Dial with WithSession or set BatchSpec.Session", i)
	}
	return resolveBatchConfig(tmpl, sp, opts, i), nil
}

// withSession opens one session stream over a pooled connection and runs
// one session body over it — the lifecycle shared by both information
// regimes. A body that returns an error abandons the stream (the server's
// end is cancelled without touching sibling sessions); a clean return
// just flushes and unregisters it.
func (c *Client) withSession(ctx context.Context, gains GainProvider, hs wire.ClientHello,
	run func(ctx context.Context, tc *wire.TaskClient, codec wire.Codec, hello *wire.Hello) error,
	cfg SessionConfig, obs []RoundObserver) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if gains == nil {
		gains = c.cfg.gains
	}
	if gains == nil {
		return fmt.Errorf("vflmarket: bargaining needs a gain provider: Dial with WithGains")
	}
	s, hello, err := c.openSession(ctx, hs)
	if err != nil {
		return wrapCtx(ctx, err)
	}
	tc := &wire.TaskClient{Session: cfg, Gains: gains, Observers: toCoreObservers(obs), Noise: c.noise}
	if err := run(ctx, tc, s, hello); err != nil {
		s.Close()
		return wrapCtx(ctx, err)
	}
	s.CloseClean()
	return nil
}

// transportErr reports failures of the pipe itself — the peer vanished,
// stalled, or reset, or the local breaker suppressed the dial. The server
// answered nothing; another attempt answers the question.
func transportErr(err error) bool {
	return wire.IsTransportError(err) || errors.Is(err, ErrCircuitOpen)
}

// retryableErr widens transportErr with the answers a live server gives
// that a later attempt can heal: saturation (busy), eviction (surfaced as
// busy mid-migration), and redirect churn while a market re-homes.
func retryableErr(err error) bool {
	return transportErr(err) || errors.Is(err, ErrServerBusy) || errors.Is(err, wire.ErrRedirected)
}

// wrapCtx prefers the context's cause when a transport error was really a
// cancellation (cancelled session receives surface as stream errors).
func wrapCtx(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("vflmarket: bargaining abandoned: %w", context.Cause(ctx))
	}
	return err
}

func toCoreObservers(obs []RoundObserver) []core.RoundObserver {
	out := make([]core.RoundObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}
