package vflmarket

import (
	"bytes"
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
// away: too many connections were mid-handshake, or its connection held
// too many sessions. Retrying after a backoff is reasonable (identified
// imperfect clients do so themselves).
var ErrServerBusy = wire.ErrServerBusy

// ErrRejected marks a session the server refused with a typed error
// (unknown market, invalid parameters, no resumable checkpoint). Retrying
// replays the same refusal.
var ErrRejected = wire.ErrRejected

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
	workers     int
	ioTimeout   time.Duration
	secureBits  int
	eagerKeys   bool
	hook        func(SessionEvent)
	state       *MarketState
	idleTimeout time.Duration
}

// WithWorkers sizes admission control. Every connection runs on its own
// goroutine; at most n+128 of them may be in their handshake at once, and
// each connection admits at most n+128 concurrent sessions. A connection or
// session past either bound is answered busy (ErrServerBusy on the client).
// <= 0 means GOMAXPROCS.
func WithWorkers(n int) ServerOption { return func(c *serverConfig) { c.workers = n } }

// WithIOTimeout bounds every read and write on served connections: a
// stalled or vanished client fails its session with an
// ErrPeerTimeout-wrapped error, counted in ServerMetrics.Watchdog, instead
// of pinning a goroutine forever. The default is 30 seconds; <= 0 keeps the
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

// WithMarketState binds the server to a durable MarketState (see
// OpenMarketState). Every registered market persists its side of the
// bargain there: estimator checkpoints keyed by client identity (so
// reconnecting imperfect buyers resume instead of re-exploring), and —
// under WithSecureSettlement — the market's Paillier key, so a restarted
// server re-announces the modulus its clients already knew. Serve flushes
// the state periodically and at shutdown; FlushState flushes on demand.
// Hand the same MarketState to the engines (Config.State) so their
// valuation memos persist alongside.
func WithMarketState(ms *MarketState) ServerOption { return func(c *serverConfig) { c.state = ms } }

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
	// fleet is the Cluster this server is a shard of, nil for a standalone
	// server. NewCluster sets it before Serve starts; a shard answers a
	// hello for a market it does not serve from the fleet's registry.
	fleet *Cluster

	mu      sync.RWMutex
	markets map[string]*market
	order   []string // registration order, the default first; replaced, never written, as Hellos share it

	accepted, sessions, closed, failed, rejected, busy atomic.Uint64
	redirected, evicted, dropped, watchdog             atomic.Uint64
	active                                             atomic.Int64

	// muxMu guards the registry of live connections past their handshake,
	// which Serve drains at shutdown. muxDraining is set from that drain
	// until the next Serve, so a connection whose handshake finished while
	// Serve was draining drains itself on registration instead of
	// outliving it. connWG counts every accepted connection's goroutine,
	// handshake included.
	muxMu       sync.Mutex
	muxConns    map[*wire.MuxServerConn]struct{}
	muxDraining bool
	connWG      sync.WaitGroup
}

// market is one registry entry: the wire endpoint, the engine behind it
// (for oracle metrics), and per-market session counters.
type market struct {
	ds     *wire.DataServer
	engine *Engine
	book   *ckptBook                  // nil without a bound state
	hello  atomic.Pointer[wire.Hello] // the last admission Hello; see announce

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
// the client's redial lands on the fleet's redirect to the new owner.
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

// backlog is the admission headroom past the worker count: a server answers
// busy once workers+backlog connections are in their handshake, and a
// connection once it holds workers+backlog sessions.
const backlog = 128

// stateFlushInterval is how often Serve spills a bound state's dirty
// estimator checkpoints and valuation memos to disk.
const stateFlushInterval = time.Minute

// NewServer builds an empty multi-market server. Register at least one
// market before calling Serve.
func NewServer(opts ...ServerOption) *Server {
	cfg := serverConfig{ioTimeout: 30 * time.Second}
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
	var keys *secure.RotatingKey
	if s.cfg.secureBits > 0 {
		// Key generation stays off the Register path: the key searches
		// primes in the background, unless eager mode generates it here. A
		// state-bound market persists its key: a restart reloads it and
		// re-announces the same modulus. Either way the key rotates at
		// runtime through RotateMarketKey.
		var err error
		if keys, err = st.marketKey(name, s.cfg.secureBits, s.cfg.eagerKeys); err != nil {
			return fmt.Errorf("vflmarket: market %q: %w", name, err)
		}
	}
	ds := wire.NewDataServer(e.Catalog(), tmpl.EpsData, keys)
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
	s.order = append(s.order[:len(s.order):len(s.order)], name)
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
// per-market counters, and — for a fleet shard — the shard-map epoch this
// shard is operating under.
func (s *Server) statsReport() *wire.StatsReport {
	rep := &wire.StatsReport{Server: s.Metrics(), Markets: s.MarketMetrics()}
	if s.fleet != nil {
		rep.Epoch = s.fleet.reg.Epoch()
	}
	return rep
}

// Unregister removes a named market from the server: the source half of a
// fabric migration. The market disappears from the registry first (new
// helloes for it consult the fleet's registry and redirect or back off),
// its live sessions are severed — counted as Evicted, not Failed; their
// clients auto-resume against the new owner — and once the last handler
// drains, the market's durable state is flushed so the destination shard
// opens on the final settled checkpoint. The engine is NOT closed: it may
// be handed to another server (in-process shards sharing a process) or
// garbage collected.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	mkt := s.markets[name]
	if mkt == nil {
		s.mu.Unlock()
		return fmt.Errorf("vflmarket: unknown market %q", name)
	}
	delete(s.markets, name)
	s.order = slices.DeleteFunc(slices.Clone(s.order), func(n string) bool { return n == name })
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

// Serve accepts connections on the listener and serves each on its own
// goroutine until ctx is cancelled, then shuts down gracefully: the
// listener closes, connections in their handshake and in-flight sessions
// finish (each bounded by the IO timeout and session round cap), and Serve
// returns the cancellation cause. A listener error other than shutdown is
// returned as-is. The listener is closed by the time Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A standalone server with nothing registered is a misconfiguration; a
	// fleet shard legitimately serves empty — markets land on it later
	// (boot-time assignment, incoming migrations) and the fleet's registry
	// redirects everything else meanwhile.
	if len(s.Markets()) == 0 && s.fleet == nil {
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

	// Admission control: sem counts connections in their handshake against
	// workers+backlog. A connection that finds every slot taken is answered
	// busy on its own goroutine instead of stalling the accept loop, and a
	// slot frees as soon as its handshake is answered, so a half-open
	// connection holds one slot for at most the IO timeout.
	sem := make(chan struct{}, s.cfg.workers+backlog)
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
		var slot bool
		select {
		case sem <- struct{}{}:
			slot = true
		default:
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn, sem, slot)
		}()
	}
	// Drain: no session opens on a connection past its handshake, in-flight
	// ones finish (each bounded by its per-stream IO timer), idle conns close
	// now, and a connection still in its handshake drains itself once open.
	s.muxMu.Lock()
	s.muxDraining = true
	for sc := range s.muxConns {
		sc.Drain()
	}
	s.muxMu.Unlock()
	s.connWG.Wait()
	if flushDone != nil {
		<-flushDone
	}
	if ferr := s.FlushState(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// serveConn carries one connection from accept to close. slot reports
// whether it won an admission slot of sem, which it gives back once its
// handshake is answered; without one it is answered busy. Past its Hello
// every KindOpen becomes an independent session. The connection itself is
// never tracked by a market — only its per-session streams are — so
// evicting a migrating market severs exactly that market's sessions and
// leaves the connection warm for the rest.
func (s *Server) serveConn(conn net.Conn, sem <-chan struct{}, slot bool) {
	defer conn.Close()
	remote := remoteAddr(conn)
	var adm *admission
	var rf *refusal
	if !slot {
		rf = &refusal{kind: wire.KindBusy, err: fmt.Errorf("vflmarket: server saturated; retry later")}
	}
	sc, err := wire.AcceptMux(conn, s.cfg.ioTimeout, s.cfg.idleTimeout, s.cfg.workers+backlog, func(ch *wire.ClientHello) *wire.Envelope {
		// The connection hello doubles as the listing probe — market
		// resolution included, so a wrong-door dial is redirected before
		// any session starts — and never starts a session itself.
		if rf == nil {
			adm, rf = s.resolve(ch, true)
		}
		switch {
		case rf != nil:
			return s.tally(rf)
		case adm.stats != nil:
			return &wire.Envelope{Kind: wire.KindStats, Stats: adm.stats}
		}
		return &wire.Envelope{Kind: wire.KindHello, Hello: adm.hello}
	})
	if slot {
		<-sem
	}
	if err != nil && rf == nil {
		rf = reject("", err) // the handshake, or the Hello write, failed
		if adm != nil {
			rf.market = adm.name
		}
	}
	switch {
	case err != nil:
		// Nothing can be framed: the refusal is counted, not sent. A busy
		// connection whose handshake failed still counts as busy.
		s.refuse(nil, remote, rf)
		return
	case rf != nil:
		s.notify(rf.market, remote, nil, rf.err)
		return
	case sc == nil:
		s.notify("", remote, nil, nil) // a stats report
		return
	}
	s.notify(adm.name, remote, nil, nil) // the probe half: a listing, like ListOnly

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

// tally counts a refusal and returns the envelope that carries it in place
// of the Hello. The count lands before the envelope goes out, so a refused
// client always finds its refusal in the metrics.
func (s *Server) tally(r *refusal) *wire.Envelope {
	switch r.kind {
	case wire.KindBusy:
		s.busy.Add(1)
	case wire.KindRedirect:
		s.redirected.Add(1)
	default:
		s.rejected.Add(1)
	}
	e := &wire.Envelope{Kind: r.kind}
	if rd, ok := r.err.(*wire.RedirectError); ok {
		e.Redirect = &wire.Redirect{Market: rd.Market, Addr: rd.Addr, Epoch: rd.Epoch}
	} else {
		e.Err = &wire.ErrorMsg{Msg: r.err.Error()}
	}
	return e
}

// refuse turns a hello away: it tallies the refusal, answers it on c — a
// nil c means nothing can be framed (the handshake or the Hello write
// itself failed) — and reports it to the session hook.
func (s *Server) refuse(c wire.Codec, remote string, r *refusal) {
	e := s.tally(r)
	if c != nil {
		_ = c.Send(e)
		_ = c.Flush()
	}
	s.notify(r.market, remote, nil, r.err)
}

// admit resolves a hello and answers on c whatever ends the exchange at the
// hello: a refusal or a stats report. It returns the admission when a
// Hello is still to go out, nil when the exchange is over.
func (s *Server) admit(c wire.Codec, ch *wire.ClientHello, remote string) *admission {
	adm, rf := s.resolve(ch, ch.ListOnly)
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
// A listing starts no session, so it skips the imperfect vetting.
func (s *Server) resolve(ch *wire.ClientHello, listing bool) (*admission, *refusal) {
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
	if mode == wire.ModeImperfect && !listing {
		var err error
		if adm.imperfect, err = mkt.ds.AdmitImperfect(ch.Imperfect); err != nil {
			return nil, reject(name, err)
		}
	}
	// In secure mode the Hello carries the market's public key, so this
	// blocks until a background key generation lands (first use only).
	base, err := mkt.ds.Hello()
	if err != nil {
		return nil, reject(name, err)
	}
	adm.hello = mkt.announce(name, base, markets, s.modes)
	return adm, nil
}

// announce returns the market's admission Hello, base with the version,
// name, market list and modes filled in. It is reused, read-only, while
// its key and market list stay the same.
func (m *market) announce(name string, base *wire.Hello, markets, modes []string) *wire.Hello {
	if h := m.hello.Load(); h != nil && bytes.Equal(h.PubN, base.PubN) && slices.Equal(h.Markets, markets) {
		return h
	}
	h := *base
	h.Version, h.Market, h.Markets, h.Modes = wire.ProtocolVersion, name, markets, modes
	m.hello.Store(&h)
	return &h
}

// resolveMarket resolves the hello's market against the registry. A
// market this server does not serve is refused: with a redirect to the
// owner the fleet names, a retryable busy while it migrates, or the
// terminal unknown-market rejection.
func (s *Server) resolveMarket(ch *wire.ClientHello) (*market, string, []string, *refusal) {
	s.mu.RLock()
	name := ch.Market
	if name == "" && len(s.order) > 0 {
		name = s.order[0]
	}
	mkt, markets := s.markets[name], s.order
	s.mu.RUnlock()
	if mkt != nil {
		return mkt, name, markets, nil
	}
	// A fleet shard knows where markets it does not serve live: answer
	// with the owner instead of a terminal rejection. While the fleet
	// reports the market mid-migration the answer is a retryable busy —
	// the new owner is not serving yet, and the client's backoff loop
	// bridges the gap.
	if s.fleet != nil && name != "" {
		if rt, ok := s.fleet.route(name); ok {
			if rt.Moving || rt.Shard.Addr == "" {
				return nil, "", nil, migrating(name)
			}
			return nil, "", nil, &refusal{kind: wire.KindRedirect, market: name,
				err: &wire.RedirectError{Market: name, Addr: rt.Shard.Addr, Epoch: rt.Epoch}}
		}
	}
	return nil, "", nil, reject("", fmt.Errorf("vflmarket: unknown market %q (serving %v)", ch.Market, markets))
}
