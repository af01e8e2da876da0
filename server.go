package vflmarket

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Networked-service aliases; see the wire package for the protocol details.
type (
	// SessionSummary is the server's record of one bargaining session.
	SessionSummary = wire.SessionSummary
	// BundleInfo is one public listing entry (features, never prices).
	BundleInfo = wire.BundleInfo
	// StatsReport is the admin metrics snapshot a server answers a
	// stats-only hello with: server counters, per-market counters, and the
	// shard-map epoch when the server belongs to a fabric.
	StatsReport = wire.StatsReport
	// ServerMetrics is a point-in-time snapshot of a server's counters:
	// the Server half of a StatsReport.
	ServerMetrics = wire.ServerStats
	// MarketMetrics is a point-in-time snapshot of one registered market's
	// session load and valuation-oracle counters: one entry of a
	// StatsReport's Markets.
	MarketMetrics = wire.MarketStats
)

// ErrPeerTimeout marks session errors caused by a peer stalling past the
// configured IO timeout (errors.Is).
var ErrPeerTimeout = wire.ErrPeerTimeout

// ErrServerBusy marks a connection the server's admission control turned
// away: its session pool and backlog were saturated. Retrying after a
// backoff is reasonable (identified imperfect clients do so themselves).
var ErrServerBusy = wire.ErrServerBusy

// ErrRejected marks a session the server refused with a typed error
// (unknown market, invalid parameters, no resumable checkpoint). Retrying
// replays the same refusal.
var ErrRejected = wire.ErrRejected

// Route is a directory answer: the dialable address of the shard that owns
// a market, the shard-map epoch that knowledge is versioned at, and
// whether the market is mid-migration (in which case the server answers
// clients with a retryable busy instead of a redirect — the new owner is
// not serving yet).
type Route struct {
	// Addr is the owning shard's address ("" while Moving if the
	// destination is not yet known to the directory).
	Addr string
	// Epoch is the shard-map version of this answer.
	Epoch uint64
	// Moving marks a market whose migration is in flight.
	Moving bool
}

// MarketDirectory tells a shard where markets it does not serve live. A
// directory-attached server answers a hello for an unregistered market
// with a redirect to the owning shard (or a retryable busy
// while the market migrates) instead of a terminal unknown-market error.
// Implementations must be safe for concurrent use; vflmarket.Cluster backs
// it with the fabric registry.
type MarketDirectory interface {
	// Route resolves a market this server does not have registered. ok =
	// false means the directory has never heard of it either, and the
	// server falls back to the unknown-market rejection.
	Route(market string) (Route, bool)
}

// WithDirectory attaches the server to a market directory — the shard-map
// half of the fabric. Helloes for markets the server does not serve are
// answered with a redirect to the owner named by the directory, or with a
// retryable busy while the directory reports the market mid-migration.
func WithDirectory(d MarketDirectory) ServerOption {
	return func(c *serverConfig) { c.directory = d }
}

// SessionEvent is the per-session notification delivered to the hook
// installed with WithSessionHook.
type SessionEvent struct {
	// Market is the resolved market name ("" when the session died before
	// market selection, e.g. on a malformed handshake).
	Market string
	// Remote is the peer address.
	Remote string
	// Summary is the session's record; nil for listing-only connections and
	// sessions rejected before bargaining started.
	Summary *SessionSummary
	// Err is the session's failure, nil on clean completion.
	Err error
}

// ServerOption configures a Server at construction time.
type ServerOption func(*serverConfig)

type serverConfig struct {
	workers        int
	ioTimeout      time.Duration
	secureBits     int
	eagerKeys      bool
	maxExploration int
	maxReplay      int
	hook           func(SessionEvent)
	state          *MarketState
	backlog        int
	directory      MarketDirectory
	idleTimeout    time.Duration
}

// WithWorkers bounds the accept-side worker pool: at most n connections
// run their handshake concurrently, further ones queue in the backlog (see
// WithBacklog), and each connection admits at most n plus the backlog
// concurrent sessions. <= 0 means GOMAXPROCS.
func WithWorkers(n int) ServerOption { return func(c *serverConfig) { c.workers = n } }

// WithIOTimeout bounds every read and write on served connections: a
// stalled or vanished client fails its session with an
// ErrPeerTimeout-wrapped error, counted in ServerMetrics.Watchdog, instead
// of pinning a worker forever. The default is 30 seconds; <= 0 keeps the
// default.
func WithIOTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.ioTimeout = d
		}
	}
}

// WithIdleTimeout bounds how long a connection may sit with no open
// sessions and no traffic before the server closes it. The default is 4x
// the IO timeout; a negative d disables the idle deadline (connections
// linger until the client closes or the server drains).
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
}

// WithSecureSettlement enables §3.6 Paillier settlement on every market:
// each registered engine gets a key pair with primes of keyBits (256 is
// fine for demos; production wants 1536+), the public key travels in the
// Hello, and realized gains then never cross the wire in clear.
//
// Register does not block on prime search: the key size is validated
// synchronously and generation runs in the background; the first secure
// session (or listing) of a market blocks until its key is ready. Use
// WithEagerSecureKeys to generate at Register instead.
func WithSecureSettlement(keyBits int) ServerOption {
	return func(c *serverConfig) { c.secureBits = keyBits }
}

// WithEagerSecureKeys makes Register generate each market's Paillier key
// pair synchronously instead of in the background — for tests and for
// deployments that want a market's key in place before it is announced.
func WithEagerSecureKeys() ServerOption {
	return func(c *serverConfig) { c.eagerKeys = true }
}

// WithImperfectCaps caps the client-supplied work factors of the imperfect
// handshake: maxExploration bounds N (the Case VII exploration rounds the
// server must keep its estimator alive for) and maxReplay bounds the
// per-round experience-replay budget — together, the per-session estimator
// compute one hello can demand. A hello exceeding either cap is refused
// with an error envelope before any session state is built, and counts as
// a rejected connection. <= 0 keeps the wire defaults (1000 exploration
// rounds, 64 replay steps).
func WithImperfectCaps(maxExploration, maxReplay int) ServerOption {
	return func(c *serverConfig) {
		c.maxExploration = maxExploration
		c.maxReplay = maxReplay
	}
}

// WithMarketState binds the server to a durable MarketState (see
// OpenMarketState). Every registered market persists its side of the
// bargain there: estimator checkpoints keyed by client identity (so
// reconnecting imperfect buyers resume instead of re-exploring), and —
// under WithSecureSettlement — the market's Paillier key, so a restarted
// server re-announces the modulus its clients already knew. Serve flushes
// the state periodically and at shutdown; FlushState flushes on demand.
// Hand the same MarketState to the engines (Config.State / WithState) so
// their valuation memos persist alongside.
func WithMarketState(ms *MarketState) ServerOption { return func(c *serverConfig) { c.state = ms } }

// WithBacklog sizes the accept-side session queue: connections beyond the
// worker pool wait in a queue of n before the server starts refusing them
// with a KindBusy envelope (ErrServerBusy on the client, which may retry
// with backoff). 0 means no queue — a connection is refused the moment
// every worker is busy; < 0 keeps the default (128).
func WithBacklog(n int) ServerOption {
	return func(c *serverConfig) {
		if n >= 0 {
			c.backlog = n
		}
	}
}

// WithSessionHook installs a per-session callback, invoked once per
// connection after it completes (or is rejected). Sessions run
// concurrently, so the hook must be safe for concurrent use.
func WithSessionHook(hook func(SessionEvent)) ServerOption {
	return func(c *serverConfig) { c.hook = hook }
}

// Server exposes one or more named Engines — a multi-market registry — as
// a network service speaking the wire protocol. One listener serves every
// registered market; clients select one in their hello. Construct with
// NewServer, add markets with Register, then run Serve.
type Server struct {
	cfg   serverConfig
	modes []string // the information regimes served, announced in every Hello

	mu      sync.RWMutex
	markets map[string]*market
	order   []string // registration order; the first market is the default

	accepted, sessions, closed, failed, rejected, busy atomic.Uint64
	redirected, evicted, dropped, watchdog             atomic.Uint64
	active                                             atomic.Int64

	// muxMu guards the registry of live connections past their handshake.
	// They serve sessions on their own goroutines, off the worker pool —
	// the per-conn session cap is their admission control — and Serve
	// drains them at shutdown. muxDraining is set from that drain until
	// the next Serve, so a connection whose handshake finished while Serve
	// was draining drains itself on registration instead of outliving it.
	muxMu       sync.Mutex
	muxConns    map[*wire.MuxServerConn]struct{}
	muxDraining bool
	muxWG       sync.WaitGroup
}

// market is one registry entry: the wire endpoint, the engine behind it
// (for oracle metrics), and per-market session counters.
type market struct {
	ds     *wire.DataServer
	engine *Engine
	book   *ckptBook // nil without a bound state

	sessions  atomic.Uint64
	imperfect atomic.Uint64
	resumed   atomic.Uint64
	active    atomic.Int64

	// connMu guards the live-session set an eviction severs. evicted
	// flips once, under the same lock, so a handler that resolved the
	// market just before Unregister either lands in conns (and is severed)
	// or observes evicted and backs off with a retryable busy. An entry is
	// one session's wire.MuxStream — closing the stream severs exactly that
	// session, so a migration never tears down sibling sessions of other
	// markets riding the same conn.
	connMu  sync.Mutex
	conns   map[io.Closer]struct{}
	evicted bool
}

// track registers a live session's mux stream with the market so an
// eviction can sever it. Returns false when the market
// has already been evicted: the caller answers with a retryable busy, and
// the client's redial lands on the directory's redirect to the new owner.
func (m *market) track(c io.Closer) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.evicted {
		return false
	}
	if m.conns == nil {
		m.conns = make(map[io.Closer]struct{})
	}
	m.conns[c] = struct{}{}
	return true
}

func (m *market) untrack(c io.Closer) {
	m.connMu.Lock()
	delete(m.conns, c)
	m.connMu.Unlock()
}

// evict marks the market evicted and severs every tracked session.
func (m *market) evict() {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	m.evicted = true
	for c := range m.conns {
		c.Close()
	}
}

func (m *market) isEvicted() bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	return m.evicted
}

// Sever hard-closes every live connection of the server without evicting
// any market or stopping the listener. In-flight sessions die with
// transport errors (Dropped, not Failed) and their identified clients
// resume on redial; the server itself keeps serving. This is the
// fault-injection lever a failover drill pulls to simulate a shard's
// network dying ahead of the process.
func (s *Server) Sever() {
	s.muxMu.Lock()
	defer s.muxMu.Unlock()
	for sc := range s.muxConns {
		sc.Close()
	}
}

// stateFlushInterval is how often Serve spills a bound state's dirty
// estimator checkpoints and valuation memos to disk.
const stateFlushInterval = time.Minute

// NewServer builds an empty multi-market server. Register at least one
// market before calling Serve.
func NewServer(opts ...ServerOption) *Server {
	cfg := serverConfig{ioTimeout: 30 * time.Second, backlog: 128}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	// Imperfect sessions train on realized gains, which must cross in clear,
	// so a Paillier-settling server serves the perfect regime only.
	modes := []string{wire.ModePerfect}
	if cfg.secureBits <= 0 {
		modes = append(modes, wire.ModeImperfect)
	}
	return &Server{cfg: cfg, modes: modes, markets: make(map[string]*market)}
}

// Register adds a named market backed by the engine: its catalog is the
// listing, its session template's εd drives the data party's Case 2
// acceptance. The first registered market is the default for clients that
// do not name one. Registering a duplicate name is an error.
func (s *Server) Register(name string, e *Engine) error {
	if name == "" {
		return fmt.Errorf("vflmarket: market name must not be empty")
	}
	if e == nil {
		return fmt.Errorf("vflmarket: market %q needs an engine", name)
	}
	st := s.cfg.state
	tmpl := e.Session()
	var ds *wire.DataServer
	if s.cfg.secureBits > 0 {
		// Key generation stays off the Register path: the key searches
		// primes in the background, unless eager mode generates it here. A
		// state-bound market persists its key: a restart reloads it and
		// re-announces the same modulus. Either way the key rotates at
		// runtime through RotateMarketKey.
		keys, err := st.marketKey(name, s.cfg.secureBits, s.cfg.eagerKeys)
		if err != nil {
			return fmt.Errorf("vflmarket: market %q: %w", name, err)
		}
		ds = wire.NewDataServerWithKeys(e.Catalog(), tmpl.EpsData, keys)
	} else {
		var err error
		ds, err = wire.NewDataServer(e.Catalog(), tmpl.EpsData, false, 0)
		if err != nil {
			return fmt.Errorf("vflmarket: market %q: %w", name, err)
		}
	}
	ds.MaxExplorationRounds = s.cfg.maxExploration
	ds.MaxReplaySteps = s.cfg.maxReplay
	// Carry the template's data-party cost model so Case 3 (Eq. 6)
	// acceptance fires over the wire exactly as it does in-process.
	ds.DataCost = tmpl.DataCost
	ds.EpsDataC = tmpl.EpsDataC
	// The imperfect regime's Case II tolerance absorbs estimation error;
	// carrying it here is what keeps networked imperfect sessions
	// bit-identical to Engine.BargainImperfect on a mirrored engine.
	ds.EpsImperfect = e.SessionImperfect().EpsData
	var book *ckptBook
	if st != nil {
		// The market's estimator checkpoints live in the durable book: the
		// wire layer saves one per settled round and resumes reconnecting
		// identities from it — across restarts, since loads fall through to
		// the snapshot store.
		book = st.book(name)
		ds.Checkpoints = book
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.markets[name]; dup {
		return fmt.Errorf("vflmarket: market %q already registered", name)
	}
	s.markets[name] = &market{ds: ds, engine: e, book: book}
	s.order = append(s.order, name)
	return nil
}

// State returns the durable MarketState the server is bound to, nil for a
// memory-only server.
func (s *Server) State() *MarketState { return s.cfg.state }

// FlushState spills the server's dirty durable state — estimator
// checkpoints and valuation memos — to disk now. A no-op without a bound
// state; Serve also flushes periodically and at shutdown.
func (s *Server) FlushState() error {
	st := s.State()
	if st == nil {
		return nil
	}
	return st.Flush()
}

// RotateMarketKey rotates the named market's Paillier key pair ("" means
// the default market): a fresh key is generated (and persisted, for a
// state-bound market), new sessions are announced the new modulus, and
// sessions opened under the previous key drain against it — one prior
// generation is retained. Returns the new public modulus. Errors if the
// market is unknown or not secure.
func (s *Server) RotateMarketKey(name string) ([]byte, error) {
	s.mu.RLock()
	if name == "" && len(s.order) > 0 {
		name = s.order[0]
	}
	mkt := s.markets[name]
	s.mu.RUnlock()
	if mkt == nil {
		return nil, fmt.Errorf("vflmarket: unknown market %q", name)
	}
	return mkt.ds.RotateKey()
}

// Markets lists the registered market names in registration order.
func (s *Server) Markets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() ServerMetrics {
	m := ServerMetrics{
		Accepted:   s.accepted.Load(),
		Sessions:   s.sessions.Load(),
		Closed:     s.closed.Load(),
		Failed:     s.failed.Load(),
		Rejected:   s.rejected.Load(),
		Busy:       s.busy.Load(),
		Redirected: s.redirected.Load(),
		Evicted:    s.evicted.Load(),
		Dropped:    s.dropped.Load(),
		Watchdog:   s.watchdog.Load(),
		Active:     s.active.Load(),
	}
	if st := s.State(); st != nil {
		m.Quarantined = st.st.Quarantined()
	}
	return m
}

// MarketMetrics snapshots every registered market's session counts and
// valuation-oracle load, keyed by market name — the per-market view an
// operator needs to see which catalog's VFL training is carrying the
// traffic.
func (s *Server) MarketMetrics() map[string]MarketMetrics {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]MarketMetrics, len(s.markets))
	for name, m := range s.markets {
		os := m.engine.OracleMetrics()
		mm := MarketMetrics{
			Sessions:          m.sessions.Load(),
			ImperfectSessions: m.imperfect.Load(),
			OracleTrainings:   os.Trainings,
			OracleCachedGains: os.CachedGains,
			OracleHits:        os.Hits,
			OracleCoalesced:   os.Coalesced,
			OracleRestored:    os.Restored,
			ResumedSessions:   m.resumed.Load(),
			ActiveSessions:    m.active.Load(),
		}
		if m.book != nil {
			mm.CheckpointedClients = m.book.clientCount()
		}
		out[name] = mm
	}
	return out
}

// statsReport assembles the wire-level admin snapshot: server counters,
// per-market counters, and — when the attached directory is versioned —
// the shard-map epoch this shard is operating under.
func (s *Server) statsReport() *wire.StatsReport {
	rep := &wire.StatsReport{Server: s.Metrics(), Markets: s.MarketMetrics()}
	if ep, ok := s.cfg.directory.(interface{ Epoch() uint64 }); ok {
		rep.Epoch = ep.Epoch()
	}
	return rep
}

// Unregister removes a named market from the server: the source half of a
// fabric migration. The market disappears from the registry first (new
// helloes for it consult the directory and redirect or back off), its live
// sessions are severed — counted as Evicted, not Failed; their clients
// auto-resume against the new owner — and once the last handler drains,
// the market's durable state is flushed so the destination shard opens on
// the final settled checkpoint. The engine is NOT closed: it may be handed
// to another server (in-process shards sharing a process) or garbage
// collected.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	mkt := s.markets[name]
	if mkt == nil {
		s.mu.Unlock()
		return fmt.Errorf("vflmarket: unknown market %q", name)
	}
	delete(s.markets, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	mkt.evict()
	// Severed handlers unwind fast (their conns are closed), but the flush
	// below must not race a final checkpoint write, so wait for the last
	// one — bounded, because a wedged handler is already bounded by the IO
	// timeout.
	deadline := time.Now().Add(s.cfg.ioTimeout + time.Second)
	for mkt.active.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := mkt.active.Load(); n > 0 {
		return fmt.Errorf("vflmarket: market %q still has %d active sessions after eviction", name, n)
	}
	return s.FlushState()
}

// Serve accepts connections on the listener and bargains with each across
// the bounded worker pool until ctx is cancelled, then shuts down
// gracefully: the listener closes, queued and in-flight sessions finish
// (each bounded by the IO timeout and session round cap), and Serve
// returns the cancellation cause. A listener error other than shutdown is
// returned as-is. The listener is closed by the time Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A standalone server with nothing registered is a misconfiguration; a
	// fabric shard legitimately serves empty — markets land on it later
	// (boot-time assignment, incoming migrations) and its directory
	// redirects everything else meanwhile.
	if len(s.Markets()) == 0 && s.cfg.directory == nil {
		ln.Close()
		return fmt.Errorf("vflmarket: serve with no registered markets")
	}
	s.muxMu.Lock()
	s.muxDraining = false
	s.muxMu.Unlock()

	// Closing the listener is what breaks the accept loop on cancellation.
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	defer ln.Close()

	// A state-bound server spills dirty checkpoints and memos on a timer
	// while serving, and once more below when the accept loop exits — so a
	// crash loses at most one flush interval of bargaining progress.
	var flushDone chan struct{}
	if st := s.State(); st != nil {
		flushDone = make(chan struct{})
		go func() {
			defer close(flushDone)
			t := time.NewTicker(stateFlushInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = st.Flush()
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Admission control: sem counts in-flight connections (queued plus
	// being served) against the pool size plus the backlog. A connection
	// that finds every slot taken is refused on a side goroutine with a
	// typed busy envelope instead of queueing unboundedly or silently
	// stalling the accept loop. The slot count — not channel readiness —
	// is the admission test, so an idle pool never spuriously refuses.
	sem := make(chan struct{}, s.cfg.workers+s.cfg.backlog)
	conns := make(chan net.Conn, s.cfg.backlog)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for conn := range conns {
				s.handle(conn)
				<-sem
			}
		}()
	}

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() != nil {
				err = context.Cause(ctx)
			} else {
				err = aerr
			}
			break
		}
		s.accepted.Add(1)
		if ctx.Err() != nil {
			conn.Close()
			continue
		}
		select {
		case sem <- struct{}{}:
			// A held slot bounds the queue: at most backlog connections sit
			// in the channel when every worker is busy, so this send can
			// only block momentarily (a worker between sessions).
			conns <- conn
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.rejectBusy(conn)
			}()
		}
	}
	close(conns)
	wg.Wait()
	// Multiplexed connections serve sessions off the worker pool; drain
	// them symmetrically — no new session opens, in-flight ones finish
	// (each bounded by its per-stream IO timer), idle conns close now.
	s.muxMu.Lock()
	s.muxDraining = true
	for sc := range s.muxConns {
		sc.Drain()
	}
	s.muxMu.Unlock()
	s.muxWG.Wait()
	if flushDone != nil {
		<-flushDone
	}
	if ferr := s.FlushState(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// rejectBusy turns away one connection whose arrival found the handshake
// pool and backlog saturated: it still reads the client's handshake (so the
// refusal lands on a framed codec), answers with the busy envelope, and
// closes. Runs on its own goroutine so a slow-writing client cannot stall
// the accept loop.
func (s *Server) rejectBusy(conn net.Conn) {
	defer conn.Close()
	// A failed handshake leaves no codec: the refusal is counted, not sent.
	codec, _, _ := wire.AcceptHandshakeMux(conn, s.cfg.ioTimeout)
	s.refuse(codec, remoteAddr(conn), &refusal{kind: wire.KindBusy, err: fmt.Errorf("vflmarket: session pool saturated; retry later")})
	wire.Release(codec)
}

// handle completes one connection's handshake on a pool worker, then hands
// the connection to its own goroutine — the worker slot frees immediately,
// and the connection serves many concurrent sessions under its per-conn
// cap.
func (s *Server) handle(conn net.Conn) {
	remote := remoteAddr(conn)
	codec, ch, err := wire.AcceptHandshakeMux(conn, s.cfg.ioTimeout)
	if err != nil {
		conn.Close()
		s.refuse(nil, remote, reject("", err))
		return
	}
	s.muxWG.Add(1)
	go func() {
		defer s.muxWG.Done()
		defer conn.Close()
		s.serveMux(conn, codec, ch, remote)
	}()
}

func remoteAddr(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// notify delivers one session event to the configured hook.
func (s *Server) notify(market, remote string, sum *SessionSummary, err error) {
	if s.cfg.hook != nil {
		s.cfg.hook(SessionEvent{Market: market, Remote: remote, Summary: sum, Err: err})
	}
}

// serveMux drives one connection: openMux answers the connection-level
// hello, then every KindOpen becomes an independent session. The
// connection itself is never tracked by a market — only its per-session
// streams are — so evicting a migrating market severs exactly that
// market's sessions and leaves the connection warm for the rest. The codec
// goes back to its pool here unless Serve took it over.
func (s *Server) serveMux(conn net.Conn, codec wire.Codec, ch *wire.ClientHello, remote string) {
	sc := s.openMux(conn, codec, ch, remote)
	if sc == nil {
		wire.Release(codec)
		return
	}
	s.muxMu.Lock()
	if s.muxConns == nil {
		s.muxConns = make(map[*wire.MuxServerConn]struct{})
	}
	s.muxConns[sc] = struct{}{}
	if s.muxDraining {
		sc.Drain()
	}
	s.muxMu.Unlock()
	defer func() {
		s.muxMu.Lock()
		delete(s.muxConns, sc)
		s.muxMu.Unlock()
	}()

	_ = sc.Serve(func(st *wire.MuxStream, sch *wire.ClientHello) {
		s.serveSession(st, sch, remote)
	})
}

// openMux answers a connection's hello. The hello doubles as the listing
// probe — market resolution included, so a wrong-door dial is redirected
// before any session starts. It returns the connection ready to Serve, or
// nil when the exchange ended at the hello (answered, refused, or failed).
func (s *Server) openMux(conn net.Conn, codec wire.Codec, ch *wire.ClientHello, remote string) *wire.MuxServerConn {
	adm := s.admit(codec, ch, remote)
	if adm == nil {
		return nil
	}
	sc, err := wire.NewMuxServerConn(conn, codec, s.cfg.ioTimeout, s.cfg.idleTimeout, s.cfg.workers+s.cfg.backlog)
	if err == nil {
		err = sc.SendHello(adm.hello)
	}
	if err != nil {
		s.refuse(nil, remote, reject(adm.name, err))
		return nil
	}
	s.notify(adm.name, remote, nil, nil) // the probe half: a listing, like ListOnly
	return sc
}

// serveSession runs one session — one stream of a connection — end to end.
// The stream is also what a market eviction severs, and its receive timer
// is the session's only stall defense: a peer that moves no envelope
// within the IO timeout ends the session with ErrPeerTimeout.
func (s *Server) serveSession(st *wire.MuxStream, ch *wire.ClientHello, remote string) {
	adm := s.admit(st, ch, remote)
	if adm == nil {
		return
	}
	mkt, name := adm.mkt, adm.name
	// From here the session is the market's: register its stream with the
	// market so a migration can sever it. A market evicted since it was
	// resolved answers busy — the redial after backoff gets the redirect.
	if !mkt.track(st) {
		s.refuse(st, remote, migrating(name))
		return
	}
	defer mkt.untrack(st)
	if ch.ListOnly {
		_ = st.Send(&wire.Envelope{Kind: wire.KindHello, Hello: adm.hello})
		_ = st.Flush()
		s.notify(name, remote, nil, nil)
		return
	}

	s.sessions.Add(1)
	mkt.sessions.Add(1)
	s.active.Add(1)
	mkt.active.Add(1)
	var sum *SessionSummary
	var serr error
	if adm.imperfect != nil {
		mkt.imperfect.Add(1)
		if ch.Imperfect.ResumeRound > 0 {
			mkt.resumed.Add(1)
		}
		sum, serr = adm.imperfect.Serve(st, adm.hello)
	} else {
		sum, serr = mkt.ds.ServeCodec(st, adm.hello)
	}
	mkt.active.Add(-1)
	s.active.Add(-1)
	switch {
	case serr != nil && mkt.isEvicted():
		// The migration severed this session, the client resumes on the new
		// owner: fabric choreography, not a failure.
		s.evicted.Add(1)
	case errors.Is(serr, wire.ErrPeerTimeout):
		// The peer stalled: no envelope moved either way within the IO
		// timeout, so the stream's receive timer (or a write deadline)
		// ended the session.
		s.watchdog.Add(1)
	case serr != nil && wire.IsTransportError(serr):
		// The transport died under the session — a reset, a torn conn. The
		// client retries or resumes; the engine did nothing wrong.
		s.dropped.Add(1)
	case serr != nil:
		s.failed.Add(1)
	case sum != nil && sum.Closed:
		s.closed.Add(1)
	}
	s.notify(name, remote, sum, serr)
}

// admission is a hello the server accepted: the resolved market, the Hello
// to answer with, and — for an imperfect session — the vetted session
// ready to serve. A stats-only hello is admitted with its report alone.
type admission struct {
	mkt       *market
	name      string
	hello     *wire.Hello
	imperfect *wire.ImperfectSession
	stats     *wire.StatsReport
}

// refusal is a hello the server turns away in place of its Hello: the
// envelope kind that carries it (KindError, KindBusy or KindRedirect), the
// market it resolved ("" before market selection), and the cause — for a
// redirect, the *wire.RedirectError naming the owner.
type refusal struct {
	kind   wire.Kind
	market string
	err    error
}

// reject is the terminal refusal: an error envelope, ErrRejected on the
// client.
func reject(market string, err error) *refusal {
	return &refusal{kind: wire.KindError, market: market, err: err}
}

// migrating is the retryable answer for a market that is moving shards.
func migrating(name string) *refusal {
	return &refusal{kind: wire.KindBusy, market: name, err: fmt.Errorf("vflmarket: market %q is migrating; retry shortly", name)}
}

// refuse turns a hello away: it counts the refusal, answers it on c in
// place of the Hello — a nil c means nothing can be framed (the handshake
// or the Hello write itself failed) — and reports it to the session hook.
// The count lands before the envelope, so a refused client always finds
// its refusal in the metrics.
func (s *Server) refuse(c wire.Codec, remote string, r *refusal) {
	switch r.kind {
	case wire.KindBusy:
		s.busy.Add(1)
	case wire.KindRedirect:
		s.redirected.Add(1)
	default:
		s.rejected.Add(1)
	}
	if c != nil {
		e := &wire.Envelope{Kind: r.kind}
		if rd, ok := r.err.(*wire.RedirectError); ok {
			e.Redirect = &wire.Redirect{Market: rd.Market, Addr: rd.Addr, Epoch: rd.Epoch}
		} else {
			e.Err = &wire.ErrorMsg{Msg: r.err.Error()}
		}
		_ = c.Send(e)
		_ = c.Flush()
	}
	s.notify(r.market, remote, nil, r.err)
}

// admit resolves a hello and answers on c whatever ends the exchange at the
// hello: a refusal or a stats report. It returns the admission when a
// Hello is still to go out, nil when the exchange is over.
func (s *Server) admit(c wire.Codec, ch *wire.ClientHello, remote string) *admission {
	adm, rf := s.resolve(ch)
	switch {
	case rf != nil:
		s.refuse(c, remote, rf)
		return nil
	case adm.stats != nil:
		_ = c.Send(&wire.Envelope{Kind: wire.KindStats, Stats: adm.stats})
		_ = c.Flush()
		s.notify("", remote, nil, nil)
		return nil
	}
	return adm
}

// resolve is the server's one admission sequence, run on the connection
// hello and on every session hello alike: protocol version, stats read,
// market, information regime, imperfect vetting, and the market's Hello.
// It returns the admission or the refusal, and sends nothing — so every
// refusal, whatever its cause, can still take the Hello's place. The stats
// read resolves no market and opens no session: the rebalancer's periodic
// poll must stay cheap and must work even when every market is mid-move.
func (s *Server) resolve(ch *wire.ClientHello) (*admission, *refusal) {
	if ch.Version != wire.ProtocolVersion {
		return nil, reject("", fmt.Errorf("vflmarket: unsupported protocol version %d (serving %d)", ch.Version, wire.ProtocolVersion))
	}
	if ch.StatsOnly {
		return &admission{stats: s.statsReport()}, nil
	}
	mkt, name, markets, rf := s.resolveMarket(ch)
	if rf != nil {
		return nil, rf
	}
	mode := ch.Mode
	if mode == "" {
		mode = wire.ModePerfect
	}
	if !slices.Contains(s.modes, mode) {
		return nil, reject(name, fmt.Errorf("vflmarket: unsupported information regime %q (serving %v)", ch.Mode, s.modes))
	}
	adm := &admission{mkt: mkt, name: name}
	// The imperfect handshake's seed, target and work factors are client
	// input: an abusive or unservable ask is refused here, before any
	// session state exists, and counted as a rejection, not a failed session.
	if mode == wire.ModeImperfect && !ch.ListOnly {
		var err error
		if adm.imperfect, err = mkt.ds.AdmitImperfect(ch.Imperfect); err != nil {
			return nil, reject(name, err)
		}
	}
	// In secure mode the Hello carries the market's public key, so this
	// blocks until a background key generation lands (first use only).
	hello, err := mkt.ds.Hello()
	if err != nil {
		return nil, reject(name, err)
	}
	hello.Version = wire.ProtocolVersion
	hello.Market = name
	hello.Markets = markets
	hello.Modes = s.modes
	adm.hello = hello
	return adm, nil
}

// resolveMarket resolves the hello's market against the registry. A
// market this server does not serve is refused: with a redirect to the
// owner the directory names, a retryable busy while it migrates, or the
// terminal unknown-market rejection.
func (s *Server) resolveMarket(ch *wire.ClientHello) (*market, string, []string, *refusal) {
	s.mu.RLock()
	name := ch.Market
	if name == "" && len(s.order) > 0 {
		name = s.order[0]
	}
	mkt := s.markets[name]
	markets := append([]string(nil), s.order...)
	s.mu.RUnlock()
	if mkt != nil {
		return mkt, name, markets, nil
	}
	// A directory-attached shard knows where markets it does not serve
	// live: answer with the owner instead of a terminal rejection. While
	// the directory reports the market mid-migration the answer is a
	// retryable busy — the new owner is not serving yet, and the
	// client's backoff loop bridges the gap.
	if d := s.cfg.directory; d != nil && name != "" {
		if rt, ok := d.Route(name); ok {
			if rt.Moving || rt.Addr == "" {
				return nil, "", nil, migrating(name)
			}
			return nil, "", nil, &refusal{kind: wire.KindRedirect, market: name,
				err: &wire.RedirectError{Market: name, Addr: rt.Addr, Epoch: rt.Epoch}}
		}
	}
	return nil, "", nil, reject("", fmt.Errorf("vflmarket: unknown market %q (serving %v)", ch.Market, markets))
}
