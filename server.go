package vflmarket

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/secure"
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
	// ServerStats is the server-level half of a StatsReport.
	ServerStats = wire.ServerStats
	// MarketStats is the per-market half of a StatsReport.
	MarketStats = wire.MarketStats
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
// with a protocol-v5 redirect to the owning shard (or a retryable busy
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
// answered with a redirect to the owner named by the directory (v5
// clients; older clients get the address in an error message), or with a
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

// MarketMetrics is a point-in-time snapshot of one registered market:
// session load split by information regime, plus the valuation-oracle
// counters behind the market's catalog — the actual VFL training load an
// operator pays for, not just connection counts. The oracle counters are 0
// for synthetic-gain engines, which never train.
type MarketMetrics struct {
	// Sessions counts bargaining sessions served in this market (both
	// regimes; listing-only connections excluded).
	Sessions uint64
	// ImperfectSessions is the subset of Sessions run under the imperfect
	// information regime.
	ImperfectSessions uint64
	// OracleTrainings counts VFL courses the market's gain oracle actually
	// trained (cache misses).
	OracleTrainings int
	// OracleCachedGains counts the bundle valuations the oracle has
	// memoized.
	OracleCachedGains int
	// OracleHits counts bundle valuations the oracle served straight from
	// its memo — training the sessions did not pay for.
	OracleHits int
	// OracleCoalesced counts callers the oracle's singleflight folded into
	// an already-running training of the same bundle — the duplicate work
	// concurrency would otherwise have multiplied.
	OracleCoalesced int
	// OracleRestored counts memoized valuations preloaded from the durable
	// store at oracle registration — answers this process never trained for.
	// 0 without a bound state.
	OracleRestored int
	// ResumedSessions counts imperfect sessions this market granted a resume
	// to: a reconnecting client presented an identity with a live
	// checkpoint and continued mid-game instead of re-exploring.
	ResumedSessions uint64
	// ActiveSessions is the number of this market's sessions being served
	// right now — the signal the fabric's rebalancer weighs alongside the
	// windowed counters.
	ActiveSessions int64
	// CheckpointedClients counts the client identities whose estimator
	// checkpoints the market currently holds in memory (restored entries
	// included). 0 without a bound state.
	CheckpointedClients int
}

// ServerMetrics is a point-in-time snapshot of a server's counters.
type ServerMetrics struct {
	// Accepted counts accepted connections.
	Accepted uint64
	// Sessions counts bargaining sessions that ran (handshake + market
	// resolution succeeded, listing-only connections excluded).
	Sessions uint64
	// Closed counts sessions that ended in a settled transaction.
	Closed uint64
	// Failed counts sessions that ended with a protocol or transport error.
	Failed uint64
	// Rejected counts connections turned away before bargaining: malformed
	// handshakes, unsupported versions, unknown markets.
	Rejected uint64
	// Busy counts connections refused by admission control: the worker pool
	// and its backlog were saturated when they arrived. Busy refusals are
	// not included in Rejected — they are load, not client error.
	Busy uint64
	// Redirected counts connections answered with a redirect to another
	// shard (directory-attached servers only). Not included in Rejected —
	// the client lands elsewhere, nothing was refused.
	Redirected uint64
	// Evicted counts sessions severed by Unregister — connections a
	// migration cut mid-bargain so their clients would re-dial the new
	// owner. Not included in Failed: an evicted session is fabric
	// choreography, not an error.
	Evicted uint64
	// Dropped counts sessions that ended on a transport fault — a peer
	// timeout, a reset, a torn connection — as classified by the wire
	// layer. Not included in Failed: a dropped session is the network's
	// doing, and v4 identified clients resume it; Failed is reserved for
	// protocol violations and engine errors.
	Dropped uint64
	// Watchdog counts sessions the server's progress watchdog severed: the
	// session made no envelope progress (no successful send or receive)
	// within the watchdog budget, so its carrier was closed to free the
	// worker. Disjoint from Dropped and Failed.
	Watchdog uint64
	// Quarantined counts corrupt snapshots the durable state quarantined at
	// load: the damaged file was renamed aside (.corrupt) and the entry
	// treated as a cold miss instead of poisoning the boot.
	Quarantined uint64
	// Active is the number of sessions being served right now.
	Active int64
}

// ServerOption configures a Server at construction time.
type ServerOption func(*serverConfig)

type serverConfig struct {
	workers        int
	ioTimeout      time.Duration
	secureBits     int
	eagerKeys      bool
	noisePool      int
	maxRounds      int
	maxExploration int
	maxReplay      int
	hook           func(SessionEvent)
	roundObs       RoundObserver
	stateDir       string
	state          *MarketState
	backlog        int
	flushEvery     time.Duration
	directory      MarketDirectory
	idleTimeout    time.Duration
	watchdog       time.Duration
}

// WithWorkers bounds the session worker pool: at most n sessions bargain
// concurrently, further connections queue in the listener backlog (the
// same bounded-pool discipline core.RunBatch uses). <= 0 means GOMAXPROCS.
func WithWorkers(n int) ServerOption { return func(c *serverConfig) { c.workers = n } }

// WithIOTimeout bounds every read and write on served connections: a
// stalled or vanished client fails its session with an
// ErrPeerTimeout-wrapped error instead of pinning a worker forever. The
// default is 30 seconds; <= 0 keeps the default.
func WithIOTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.ioTimeout = d
		}
	}
}

// WithIdleTimeout bounds how long a multiplexed (v6) connection may sit
// with no open sessions and no traffic before the server closes it. The
// default is 4x the IO timeout; a negative d disables the idle deadline
// (connections linger until the client closes or the server drains).
// Serial connections are unaffected — they carry exactly one session,
// already bounded by the IO timeout.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
}

// WithWatchdogBudget sets the server's per-session progress budget: a
// session that moves no envelope in either direction for d is severed by
// the watchdog (its connection or stream is closed, the session counts as
// Watchdog, not Failed). This is the backstop above the per-read IO
// timeout — a peer trickling one byte per interval defeats a read
// deadline but not the watchdog. The default is 4x the IO timeout; a
// negative d disables the watchdog.
func WithWatchdogBudget(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.watchdog = d }
}

// WithSecureSettlement enables §3.6 Paillier settlement on every market:
// each registered engine gets a key pair with primes of keyBits (256 is
// fine for demos; production wants 1536+), the public key travels in the
// Hello, and realized gains then never cross the wire in clear.
//
// Register no longer blocks on prime search: the key size is validated
// synchronously, generation runs in the background, and the market's
// randomizer pool is primed as soon as the key lands; the first secure
// session (or listing) of a market blocks until its key is ready. Use
// WithEagerSecureKeys to generate at Register instead.
func WithSecureSettlement(keyBits int) ServerOption {
	return func(c *serverConfig) { c.secureBits = keyBits }
}

// WithEagerSecureKeys makes Register generate each market's Paillier key
// pair synchronously instead of in the background — for tests and for
// deployments that want a market fully settled-in (key and primed noise
// pool) before it is announced.
func WithEagerSecureKeys() ServerOption {
	return func(c *serverConfig) { c.eagerKeys = true }
}

// WithNoisePool sizes each secure market's pool of precomputed Paillier
// randomizers (r^n mod n² factors used to blind settlement decryptions).
// Concurrent sessions of a market share its pool. <= 0 keeps the default
// (secure.DefaultNoisePool); inert without WithSecureSettlement.
func WithNoisePool(n int) ServerOption {
	return func(c *serverConfig) { c.noisePool = n }
}

// WithSessionRounds caps the quotes a single session may send before the
// server gives up on it. <= 0 keeps the wire default (1000).
func WithSessionRounds(n int) ServerOption { return func(c *serverConfig) { c.maxRounds = n } }

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

// WithStateDir binds the server to a durable state directory (shared
// process-wide per directory — see SharedMarketState). Every market
// registered afterwards persists its side of the bargain there: estimator
// checkpoints keyed by client identity (so reconnecting imperfect buyers
// resume instead of re-exploring), and — under WithSecureSettlement — the
// market's Paillier key, so a restarted server re-announces the modulus its
// clients already knew. Serve flushes the state periodically and at
// shutdown; FlushState flushes on demand. Engines carry their own binding
// (Config.StateDir / WithState) for the valuation memo.
func WithStateDir(dir string) ServerOption { return func(c *serverConfig) { c.stateDir = dir } }

// WithMarketState binds the server to an explicit MarketState handle,
// taking precedence over WithStateDir. Used by tests that simulate
// restarts with OpenMarketState.
func WithMarketState(ms *MarketState) ServerOption { return func(c *serverConfig) { c.state = ms } }

// WithBacklog sizes the accept-side session queue: connections beyond the
// worker pool wait in a queue of n before the server starts refusing them
// with a KindBusy envelope (ErrServerBusy on v4 clients, who may retry
// with backoff). 0 means no queue — a connection is refused the moment
// every worker is busy; < 0 keeps the default (128).
func WithBacklog(n int) ServerOption {
	return func(c *serverConfig) {
		if n >= 0 {
			c.backlog = n
		}
	}
}

// WithStateFlushInterval sets how often Serve spills dirty durable state
// (estimator checkpoints, valuation memos) to disk. <= 0 keeps the default
// (1 minute). Inert without a bound state.
func WithStateFlushInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.flushEvery = d
		}
	}
}

// WithSessionHook installs a per-session callback, invoked once per
// connection after it completes (or is rejected). Sessions run
// concurrently, so the hook must be safe for concurrent use.
func WithSessionHook(hook func(SessionEvent)) ServerOption {
	return func(c *serverConfig) { c.hook = hook }
}

// WithServerObserver streams every realized round of every session, as the
// server sees it: quote, bundle, and — in clear settlement mode — gain and
// payment (zeros under Paillier). The observer is shared across concurrent
// sessions and must be safe for concurrent use; OnOutcome never fires
// (use WithSessionHook for completions).
func WithServerObserver(obs RoundObserver) ServerOption {
	return func(c *serverConfig) { c.roundObs = obs }
}

// Server exposes one or more named Engines — a multi-market registry — as
// a network service speaking the wire protocol. One listener serves every
// registered market; clients select one in their hello. Construct with
// NewServer, add markets with Register, then run Serve.
type Server struct {
	cfg serverConfig

	mu      sync.RWMutex
	markets map[string]*market
	order   []string // registration order; the first market is the default
	state   *MarketState

	accepted, sessions, closed, failed, rejected, busy atomic.Uint64
	redirected, evicted, dropped, watchdog             atomic.Uint64
	active                                             atomic.Int64

	// wdMu guards the set of sessions the progress watchdog patrols. Each
	// entry carries the session's last-progress timestamp and the closer
	// severing it; the reaper goroutine in Serve sweeps the set.
	wdMu       sync.Mutex
	wdSessions map[*wdEntry]struct{}

	// muxMu guards the registry of live v6 multiplexed connections. Mux
	// conns serve sessions on their own goroutines, off the worker pool —
	// the per-conn session cap is their admission control — and Serve
	// drains them at shutdown.
	muxMu    sync.Mutex
	muxConns map[*wire.MuxServerConn]struct{}
	muxWG    sync.WaitGroup
}

// market is one registry entry: the wire endpoint, the engine behind it
// (for oracle metrics), and per-market session counters. stopPrime
// cancels the background pool priming kicked off at registration, so a
// server shut down before a slow key generation lands does not go on to
// fill a pool nothing will draw from.
type market struct {
	ds        *wire.DataServer
	engine    *Engine
	stopPrime context.CancelFunc
	book      *ckptBook // nil without a bound state

	sessions  atomic.Uint64
	imperfect atomic.Uint64
	resumed   atomic.Uint64
	active    atomic.Int64

	// connMu guards the live-session set an eviction severs. evicted
	// flips once, under the same lock, so a handler that resolved the
	// market just before Unregister either lands in conns (and is severed)
	// or observes evicted and backs off with a retryable busy. An entry is
	// a whole net.Conn for a serial session, or a single wire.MuxStream for
	// a session multiplexed onto a shared v6 connection — closing the
	// stream severs exactly that session, so a migration never tears down
	// sibling sessions of other markets riding the same conn.
	connMu  sync.Mutex
	conns   map[io.Closer]struct{}
	evicted bool
}

// track registers a live session carrier (a conn, or one mux stream) with
// the market so an eviction can sever it. Returns false when the market
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

// sever closes every tracked session carrier WITHOUT marking the market
// evicted: the chaos lever behind Server.Sever. Sessions die with
// transport errors (counted Dropped), the market keeps serving redials.
func (m *market) sever() {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	for c := range m.conns {
		c.Close()
	}
}

// Sever hard-closes every live connection of the server — multiplexed
// conns and serial session carriers alike — without evicting any market
// or stopping the listener. In-flight sessions die with transport errors
// (Dropped, not Failed) and their identified clients resume on redial;
// the server itself keeps serving. This is the fault-injection lever a
// failover drill pulls to simulate a shard's network dying ahead of the
// process.
func (s *Server) Sever() {
	s.muxMu.Lock()
	for sc := range s.muxConns {
		sc.Close()
	}
	s.muxMu.Unlock()
	s.mu.RLock()
	for _, m := range s.markets {
		m.sever()
	}
	s.mu.RUnlock()
}

// wdEntry is one session under watchdog patrol: the carrier to sever and
// the wall-clock nanos of its last envelope progress.
type wdEntry struct {
	closer io.Closer
	last   atomic.Int64
	fired  atomic.Bool
}

// progressCodec wraps a session's codec so every successful Send or Recv
// refreshes the watchdog timestamp. Flush forwards to the underlying
// codec (wire.Flush type-asserts, so the wrapper must re-export it).
type progressCodec struct {
	wire.Codec
	wd *wdEntry
}

func (p progressCodec) Send(e *wire.Envelope) error {
	err := p.Codec.Send(e)
	if err == nil {
		p.wd.last.Store(time.Now().UnixNano())
	}
	return err
}

func (p progressCodec) Recv() (*wire.Envelope, error) {
	e, err := p.Codec.Recv()
	if err == nil {
		p.wd.last.Store(time.Now().UnixNano())
	}
	return e, err
}

func (p progressCodec) Flush() error { return wire.Flush(p.Codec) }

// watchdogBudget resolves the configured progress budget: explicit if
// set, 4x the IO timeout by default, disabled (0) when negative.
func (s *Server) watchdogBudget() time.Duration {
	switch {
	case s.cfg.watchdog > 0:
		return s.cfg.watchdog
	case s.cfg.watchdog < 0:
		return 0
	default:
		return 4 * s.cfg.ioTimeout
	}
}

// watchdogTrack registers a session with the watchdog, stamped as having
// just made progress (the handshake counts).
func (s *Server) watchdogTrack(closer io.Closer) *wdEntry {
	wd := &wdEntry{closer: closer}
	wd.last.Store(time.Now().UnixNano())
	s.wdMu.Lock()
	if s.wdSessions == nil {
		s.wdSessions = make(map[*wdEntry]struct{})
	}
	s.wdSessions[wd] = struct{}{}
	s.wdMu.Unlock()
	return wd
}

func (s *Server) watchdogUntrack(wd *wdEntry) {
	s.wdMu.Lock()
	delete(s.wdSessions, wd)
	s.wdMu.Unlock()
}

// reapStalled severs every patrolled session whose last envelope progress
// is older than the budget. The severed handler unwinds with a transport
// error and classifies itself Watchdog via the fired flag.
func (s *Server) reapStalled(budget time.Duration) {
	cutoff := time.Now().Add(-budget).UnixNano()
	s.wdMu.Lock()
	defer s.wdMu.Unlock()
	for wd := range s.wdSessions {
		if wd.last.Load() < cutoff && !wd.fired.Swap(true) {
			wd.closer.Close()
		}
	}
}

// NewServer builds an empty multi-market server. Register at least one
// market before calling Serve.
func NewServer(opts ...ServerOption) *Server {
	cfg := serverConfig{ioTimeout: 30 * time.Second, backlog: 128, flushEvery: time.Minute}
	for _, o := range opts {
		o(&cfg)
	}
	return &Server{cfg: cfg, markets: make(map[string]*market)}
}

// ensureStateLocked resolves the server's durable state on first use:
// an explicit handle wins, otherwise the configured directory opens through
// the process-wide cache. nil state means the server runs memory-only.
// Callers hold s.mu.
func (s *Server) ensureStateLocked() (*MarketState, error) {
	if s.state != nil {
		return s.state, nil
	}
	if s.cfg.state != nil {
		s.state = s.cfg.state
		return s.state, nil
	}
	if s.cfg.stateDir == "" {
		return nil, nil
	}
	ms, err := SharedMarketState(s.cfg.stateDir)
	if err != nil {
		return nil, err
	}
	s.state = ms
	return ms, nil
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
	s.mu.Lock()
	st, serr := s.ensureStateLocked()
	s.mu.Unlock()
	if serr != nil {
		return fmt.Errorf("vflmarket: market %q: %w", name, serr)
	}
	tmpl := e.Session()
	var ds *wire.DataServer
	var stopPrime context.CancelFunc
	if s.cfg.secureBits > 0 {
		// Key generation stays off the Register path: an AsyncKey searches
		// primes in the background and the market's randomizer pool is
		// primed as soon as the key lands (the priming is cancelled if the
		// server shuts down first). Eager mode generates the key AND fills
		// the pool here, so the market is fully settled-in on return. A
		// state-bound market persists its key instead: a restart reloads it
		// and re-announces the same modulus — and gains runtime rotation
		// through RotateMarketKey.
		var keys secure.KeyProvider
		var err error
		switch {
		case st != nil:
			keys, err = secure.PersistedKey(st.st, "keys/"+marketSlug(name), rand.Reader, s.cfg.secureBits, s.cfg.eagerKeys)
		case s.cfg.eagerKeys:
			keys, err = secure.EagerKey(rand.Reader, s.cfg.secureBits)
		default:
			keys, err = secure.AsyncKey(rand.Reader, s.cfg.secureBits)
		}
		if err != nil {
			return fmt.Errorf("vflmarket: market %q: %w", name, err)
		}
		ds = wire.NewDataServerWithKeys(e.Catalog(), tmpl.EpsData, keys)
		ds.NoisePool = s.cfg.noisePool
		if s.cfg.eagerKeys {
			if err := ds.PrimeNoise(context.Background()); err != nil {
				return fmt.Errorf("vflmarket: market %q: %w", name, err)
			}
		} else {
			var primeCtx context.Context
			primeCtx, stopPrime = context.WithCancel(context.Background())
			go ds.PrimeNoise(primeCtx) //nolint:errcheck // best-effort; sessions prime lazily
		}
	} else {
		var err error
		ds, err = wire.NewDataServer(e.Catalog(), tmpl.EpsData, false, 0)
		if err != nil {
			return fmt.Errorf("vflmarket: market %q: %w", name, err)
		}
	}
	ds.MaxRounds = s.cfg.maxRounds
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
	if obs := s.cfg.roundObs; obs != nil {
		ds.OnRound = obs.OnRound
	}
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
		// The rejected entry's background work must not outlive it.
		if stopPrime != nil {
			stopPrime()
		}
		ds.Close()
		return fmt.Errorf("vflmarket: market %q already registered", name)
	}
	s.markets[name] = &market{ds: ds, engine: e, stopPrime: stopPrime, book: book}
	s.order = append(s.order, name)
	return nil
}

// State returns the durable MarketState the server resolved at Register,
// nil for a memory-only server.
func (s *Server) State() *MarketState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state
}

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
// market is unknown, not secure, or its key provider cannot rotate.
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
	sm := s.Metrics()
	rep := &wire.StatsReport{
		Server: wire.ServerStats{
			Accepted:    sm.Accepted,
			Sessions:    sm.Sessions,
			Closed:      sm.Closed,
			Failed:      sm.Failed,
			Rejected:    sm.Rejected,
			Busy:        sm.Busy,
			Redirected:  sm.Redirected,
			Evicted:     sm.Evicted,
			Dropped:     sm.Dropped,
			Watchdog:    sm.Watchdog,
			Quarantined: sm.Quarantined,
			Active:      sm.Active,
		},
		Markets: make(map[string]wire.MarketStats),
	}
	for name, mm := range s.MarketMetrics() {
		rep.Markets[name] = wire.MarketStats{
			Sessions:            mm.Sessions,
			ImperfectSessions:   mm.ImperfectSessions,
			ResumedSessions:     mm.ResumedSessions,
			ActiveSessions:      mm.ActiveSessions,
			OracleTrainings:     mm.OracleTrainings,
			OracleCachedGains:   mm.OracleCachedGains,
			OracleHits:          mm.OracleHits,
			OracleCoalesced:     mm.OracleCoalesced,
			OracleRestored:      mm.OracleRestored,
			CheckpointedClients: mm.CheckpointedClients,
		}
	}
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
	if mkt.stopPrime != nil {
		mkt.stopPrime()
	}
	mkt.ds.Close()
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
	workers := s.cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

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
			t := time.NewTicker(s.cfg.flushEvery)
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

	// The watchdog reaper patrols in-flight sessions: one that moves no
	// envelope within the budget is severed so a wedged or glacial peer
	// cannot pin a worker past the budget. Sweeping at budget/4 bounds the
	// overshoot; the per-read IO timeout still handles total silence.
	if budget := s.watchdogBudget(); budget > 0 {
		wdCtx, wdStop := context.WithCancel(ctx)
		defer wdStop()
		go func() {
			t := time.NewTicker(budget / 4)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.reapStalled(budget)
				case <-wdCtx.Done():
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
	sem := make(chan struct{}, workers+s.cfg.backlog)
	conns := make(chan net.Conn, s.cfg.backlog)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
			s.busy.Add(1)
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
	// Release per-market background resources (secure randomizer pools) —
	// but only on deliberate shutdown: closing a pool is permanent, and a
	// transient listener error should leave the markets warm for the
	// operator's retry Serve. A market served after its pool closed still
	// settles correctly: pool draws fall back to inline computation.
	if ctx.Err() != nil {
		s.mu.RLock()
		for _, m := range s.markets {
			if m.stopPrime != nil {
				m.stopPrime()
			}
			m.ds.Close()
		}
		s.mu.RUnlock()
	}
	return err
}

// rejectBusy turns away one connection whose arrival found the session
// pool and backlog saturated: it still reads the client's handshake (so
// the refusal lands on a framed codec), answers with the v4 busy envelope
// — or a plain error for older clients, which have no KindBusy — and
// closes. Runs on its own goroutine so a slow-writing client cannot stall
// the accept loop.
func (s *Server) rejectBusy(conn net.Conn) {
	defer conn.Close()
	remote := ""
	if addr := conn.RemoteAddr(); addr != nil {
		remote = addr.String()
	}
	busyErr := fmt.Errorf("vflmarket: session pool saturated; retry later")
	codec, ch, _, err := wire.AcceptHandshakeMux(conn, s.cfg.ioTimeout)
	if err == nil {
		if ch.Version >= 4 {
			wire.SendBusy(codec, "%v", busyErr)
		} else {
			wire.SendError(codec, "%v", busyErr)
		}
	}
	if s.cfg.hook != nil {
		s.cfg.hook(SessionEvent{Remote: remote, Err: busyErr})
	}
}

// handle runs one connection end to end: handshake, market resolution, and
// the bargaining session. A v6 mux handshake hands the connection to its
// own goroutine instead — the worker slot frees immediately, and the
// connection serves many concurrent sessions under its per-conn cap.
func (s *Server) handle(conn net.Conn) {
	remote := ""
	if addr := conn.RemoteAddr(); addr != nil {
		remote = addr.String()
	}
	codec, ch, mux, err := wire.AcceptHandshakeMux(conn, s.cfg.ioTimeout)
	if err != nil {
		conn.Close()
		s.rejected.Add(1)
		s.notify("", remote, nil, err)
		return
	}
	if mux {
		s.muxWG.Add(1)
		go func() {
			defer s.muxWG.Done()
			defer conn.Close()
			s.serveMux(conn, codec, ch, remote)
		}()
		return
	}
	defer conn.Close()
	s.serveSession(codec, ch, remote, conn)
}

// notify delivers one session event to the configured hook.
func (s *Server) notify(market, remote string, sum *SessionSummary, err error) {
	if s.cfg.hook != nil {
		s.cfg.hook(SessionEvent{Market: market, Remote: remote, Summary: sum, Err: err})
	}
}

// muxSessionCap bounds concurrently open sessions per multiplexed
// connection — the mux counterpart of the serial worker pool plus its
// backlog (mux sessions run on their own goroutines, off the pool).
func (s *Server) muxSessionCap() int {
	w := s.cfg.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w + s.cfg.backlog
}

// serveMux drives one v6 multiplexed connection: the connection-level
// hello doubles as the listing probe (market resolution included, so a
// wrong-door dial is redirected before any session starts), then every
// KindOpen becomes an independent session handled exactly like a serial
// connection's. The connection itself is never tracked by a market — only
// its per-session streams are — so evicting a migrating market severs
// exactly that market's sessions and leaves the connection warm for the
// rest.
func (s *Server) serveMux(conn net.Conn, codec wire.Codec, ch *wire.ClientHello, remote string) {
	notify := func(market string, sum *SessionSummary, err error) {
		s.notify(market, remote, sum, err)
	}
	if ch.Version < 1 || ch.Version > wire.ProtocolVersion {
		s.rejected.Add(1)
		err := fmt.Errorf("vflmarket: unsupported protocol version %d (serving <= %d)", ch.Version, wire.ProtocolVersion)
		wire.SendError(codec, "%v", err)
		notify("", nil, err)
		return
	}
	if ch.StatsOnly {
		_ = codec.Send(&wire.Envelope{Kind: wire.KindStats, Stats: s.statsReport()})
		_ = wire.Flush(codec)
		notify("", nil, nil)
		return
	}
	mkt, name, markets, ok := s.resolveMarket(codec, ch, notify)
	if !ok {
		return
	}
	_, modes, ok := s.resolveMode(codec, ch, notify)
	if !ok {
		return
	}
	hello, err := mkt.ds.Hello()
	if err != nil {
		s.rejected.Add(1)
		wire.SendError(codec, "%v", err)
		notify(name, nil, err)
		return
	}
	hello.Version = wire.ProtocolVersion
	hello.Market = name
	hello.Markets = markets
	hello.Modes = modes

	sc, err := wire.NewMuxServerConn(conn, codec, s.cfg.ioTimeout, s.cfg.idleTimeout, s.muxSessionCap())
	if err != nil {
		s.rejected.Add(1)
		notify(name, nil, err)
		return
	}
	if err := sc.SendHello(hello); err != nil {
		s.rejected.Add(1)
		notify(name, nil, err)
		return
	}
	notify(name, nil, nil) // the probe half: a listing, like ListOnly

	s.muxMu.Lock()
	if s.muxConns == nil {
		s.muxConns = make(map[*wire.MuxServerConn]struct{})
	}
	s.muxConns[sc] = struct{}{}
	s.muxMu.Unlock()
	defer func() {
		s.muxMu.Lock()
		delete(s.muxConns, sc)
		s.muxMu.Unlock()
	}()

	_ = sc.Serve(func(st *wire.MuxStream, sch *wire.ClientHello) {
		s.serveSession(st, sch, remote, st)
	})
}

// serveSession runs one session end to end on an established codec — a
// whole serial connection, or one stream of a multiplexed one. closer is
// what a market eviction severs: the connection itself in the serial
// case, the single stream in the mux case.
func (s *Server) serveSession(codec wire.Codec, ch *wire.ClientHello, remote string, closer io.Closer) {
	notify := func(market string, sum *SessionSummary, err error) {
		s.notify(market, remote, sum, err)
	}
	if ch.Version < 1 || ch.Version > wire.ProtocolVersion {
		s.rejected.Add(1)
		err := fmt.Errorf("vflmarket: unsupported protocol version %d (serving <= %d)", ch.Version, wire.ProtocolVersion)
		wire.SendError(codec, "%v", err)
		notify("", nil, err)
		return
	}

	// Admin read: a stats-only hello gets the metrics snapshot and closes.
	// No market resolution, no session — the rebalancer's periodic poll
	// must stay cheap and must work even when every market is mid-move.
	if ch.StatsOnly {
		_ = codec.Send(&wire.Envelope{Kind: wire.KindStats, Stats: s.statsReport()})
		_ = wire.Flush(codec)
		notify("", nil, nil)
		return
	}

	mode, modes, ok := s.resolveMode(codec, ch, notify)
	if !ok {
		return
	}
	mkt, name, markets, ok := s.resolveMarket(codec, ch, notify)
	if !ok {
		return
	}

	// From here the session is the market's: register its carrier with the
	// market so a migration can sever it. A market evicted between lookup
	// and here answers busy — the redial after backoff gets the redirect.
	if !mkt.track(closer) {
		s.busy.Add(1)
		err := fmt.Errorf("vflmarket: market %q is migrating; retry shortly", name)
		if ch.Version >= 4 {
			wire.SendBusy(codec, "%v", err)
		} else {
			wire.SendError(codec, "%v", err)
		}
		notify(name, nil, err)
		return
	}
	defer mkt.untrack(closer)

	// Protocol v3 hardening: the handshake's work factors are client
	// input, so an abusive hello (exploration rounds or replay budget over
	// the market's caps) is refused here — with an error envelope in place
	// of the Hello, before any session state exists — and counted as a
	// rejection, not a failed session.
	if mode == wire.ModeImperfect && !ch.ListOnly {
		if err := mkt.ds.ValidateImperfectHello(ch.Imperfect); err != nil {
			s.rejected.Add(1)
			wire.SendError(codec, "%v", err)
			notify(name, nil, err)
			return
		}
		// A resume request is vetted here, while an error envelope can still
		// take the Hello's place: the wire layer refuses without sending
		// (its direct callers own the codec), so the frontend speaks.
		if err := mkt.ds.CheckResume(ch.Imperfect); err != nil {
			s.rejected.Add(1)
			wire.SendError(codec, "%v", err)
			notify(name, nil, err)
			return
		}
	}

	// In secure mode the Hello carries the market's public key, so this
	// blocks until a background key generation lands (first session only).
	hello, err := mkt.ds.Hello()
	if err != nil {
		s.rejected.Add(1)
		wire.SendError(codec, "%v", err)
		notify(name, nil, err)
		return
	}
	hello.Version = wire.ProtocolVersion
	hello.Market = name
	hello.Markets = markets
	hello.Modes = modes

	if ch.ListOnly {
		_ = codec.Send(&wire.Envelope{Kind: wire.KindHello, Hello: hello})
		_ = wire.Flush(codec)
		notify(name, nil, nil)
		return
	}

	s.sessions.Add(1)
	mkt.sessions.Add(1)
	s.active.Add(1)
	mkt.active.Add(1)
	// The bargaining loop runs under watchdog patrol: the codec wrapper
	// stamps every successful envelope, the reaper severs the carrier when
	// the stamp goes stale past the budget.
	var wd *wdEntry
	sessionCodec := codec
	if s.watchdogBudget() > 0 {
		wd = s.watchdogTrack(closer)
		sessionCodec = progressCodec{Codec: codec, wd: wd}
		defer s.watchdogUntrack(wd)
	}
	var sum *SessionSummary
	var serr error
	if mode == wire.ModeImperfect {
		mkt.imperfect.Add(1)
		if ch.Imperfect.ResumeRound > 0 {
			mkt.resumed.Add(1)
		}
		sum, serr = mkt.ds.ServeImperfectCodec(sessionCodec, hello, ch.Imperfect)
	} else {
		sum, serr = mkt.ds.ServeCodec(sessionCodec, hello)
	}
	mkt.active.Add(-1)
	s.active.Add(-1)
	switch {
	case serr != nil && mkt.isEvicted():
		// The migration severed this session, the client resumes on the new
		// owner: fabric choreography, not a failure.
		s.evicted.Add(1)
	case serr != nil && wd != nil && wd.fired.Load():
		// The watchdog severed it: no envelope progress within the budget.
		s.watchdog.Add(1)
	case serr != nil && wire.IsTransportError(serr):
		// The transport died under the session — a reset, a timeout, a torn
		// conn. The client retries or resumes; the engine did nothing wrong.
		s.dropped.Add(1)
	case serr != nil:
		s.failed.Add(1)
	case sum != nil && sum.Closed:
		s.closed.Add(1)
	}
	notify(name, sum, serr)
}

// resolveMode resolves the information regime the client asked for,
// answering the refusal itself when unsupported. Imperfect sessions train
// on realized gains, which must cross in clear, so a Paillier-settling
// server serves the perfect regime only.
func (s *Server) resolveMode(codec wire.Codec, ch *wire.ClientHello, notify func(string, *SessionSummary, error)) (string, []string, bool) {
	mode := ch.Mode
	if mode == "" {
		mode = wire.ModePerfect
	}
	modes := []string{wire.ModePerfect}
	if s.cfg.secureBits <= 0 {
		modes = append(modes, wire.ModeImperfect)
	}
	supported := false
	for _, m := range modes {
		supported = supported || m == mode
	}
	if !supported {
		s.rejected.Add(1)
		err := fmt.Errorf("vflmarket: unsupported information regime %q (serving %v)", ch.Mode, modes)
		wire.SendError(codec, "%v", err)
		notify("", nil, err)
		return "", nil, false
	}
	if mode == wire.ModeImperfect && !ch.ListOnly && ch.Imperfect == nil {
		s.rejected.Add(1)
		err := fmt.Errorf("vflmarket: imperfect session opened without parameters (seed, target, exploration rounds)")
		wire.SendError(codec, "%v", err)
		notify("", nil, err)
		return "", nil, false
	}
	return mode, modes, true
}

// resolveMarket resolves the hello's market against the registry,
// answering directory redirects, migration busies, and the unknown-market
// rejection itself. ok=false means the refusal was already sent and
// counted.
func (s *Server) resolveMarket(codec wire.Codec, ch *wire.ClientHello, notify func(string, *SessionSummary, error)) (*market, string, []string, bool) {
	s.mu.RLock()
	name := ch.Market
	if name == "" && len(s.order) > 0 {
		name = s.order[0]
	}
	mkt := s.markets[name]
	markets := append([]string(nil), s.order...)
	s.mu.RUnlock()
	if mkt != nil {
		return mkt, name, markets, true
	}
	// A directory-attached shard knows where markets it does not serve
	// live: answer with the owner instead of a terminal rejection. While
	// the directory reports the market mid-migration the answer is a
	// retryable busy — the new owner is not serving yet, and the
	// client's backoff loop bridges the gap.
	if d := s.cfg.directory; d != nil && name != "" {
		if rt, ok := d.Route(name); ok {
			if rt.Moving || rt.Addr == "" {
				s.busy.Add(1)
				err := fmt.Errorf("vflmarket: market %q is migrating; retry shortly", name)
				if ch.Version >= 4 {
					wire.SendBusy(codec, "%v", err)
				} else {
					wire.SendError(codec, "%v", err)
				}
				notify(name, nil, err)
				return nil, "", nil, false
			}
			s.redirected.Add(1)
			rerr := &wire.RedirectError{Market: name, Addr: rt.Addr, Epoch: rt.Epoch}
			if ch.Version >= 5 {
				wire.SendRedirect(codec, &wire.Redirect{Market: name, Addr: rt.Addr, Epoch: rt.Epoch})
			} else {
				// Pre-v5 clients cannot follow a redirect envelope; name
				// the owner in the error so the operator can re-point them.
				wire.SendError(codec, "vflmarket: market %q is served at %s", name, rt.Addr)
			}
			notify(name, nil, rerr)
			return nil, "", nil, false
		}
	}
	s.rejected.Add(1)
	err := fmt.Errorf("vflmarket: unknown market %q (serving %v)", ch.Market, markets)
	wire.SendError(codec, "%v", err)
	notify("", nil, err)
	return nil, "", nil, false
}
