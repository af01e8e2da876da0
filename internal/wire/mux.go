package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The session mux turns one framed connection into a fabric of
// independent bargaining sessions. Both ends share the same shape: a single
// reader goroutine demultiplexes inbound frames by session ID into buffered
// per-session inboxes, and a mutex-serialized writer shares the buffered
// send path. Stall detection moves from per-read connection deadlines
// (which would kill idle pooled connections, and would let one wedged
// session starve its siblings) to per-session receive timers — that is what
// gives each stream its own deadline and rules out head-of-line blocking.

// muxInboxCap bounds the per-session inbox. The protocol is half-duplex
// per session with at most two server frames in flight (a pipelined Ack
// plus the Offer), so a full inbox means a broken peer, not backpressure.
const muxInboxCap = 16

// idleFactor scales the connection IO timeout into the server-side idle
// read deadline on a mux conn: active sessions' own receive timers must
// fire first, but an abandoned connection is still reaped.
const idleFactor = 4

// ErrMuxClosed reports an operation on a mux connection that was closed
// locally.
var ErrMuxClosed = errors.New("wire: mux connection closed")

// ErrSessionEvicted reports a mux stream severed server-side because its
// market was evicted (live migration). Clients see it as ErrServerBusy and
// retry, landing on the new owner via redirect.
var ErrSessionEvicted = errors.New("wire: session evicted")

// ErrSessionCancelled reports a mux stream torn down because the peer sent
// an explicit KindCancel for it — the client walked away, the server did
// nothing wrong. Transport-class, not a protocol violation.
var ErrSessionCancelled = errors.New("wire: session cancelled by peer")

// MuxConn is the client end of a multiplexed connection: one dial, one
// handshake, many concurrent sessions. Safe for concurrent use.
type MuxConn struct {
	conn  net.Conn
	fc    *framedCodec
	name  string
	hello *Hello
	io    time.Duration

	wmu sync.Mutex // serializes fc's send path and flushes

	mu       sync.Mutex
	sessions map[uint64]*MuxSession
	nextSID  uint64
	err      error
	dead     chan struct{}
}

// OpenMux upgrades a freshly dialed connection to a multiplexed session
// fabric: mux preamble, connection-level ClientHello (its Market names the
// market used for shard routing; ListOnly semantics — no session starts),
// and the server's Hello, which doubles as the listing probe. The caller
// owns the connection; on error it should close it. The handshake is
// bounded by ioTimeout; afterwards the connection idles without deadlines
// and individual sessions arm their own receive timers.
func OpenMux(conn net.Conn, codecName string, ch ClientHello, ioTimeout time.Duration) (*MuxConn, *Hello, error) {
	if ioTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return nil, nil, err
		}
	}
	if err := writeMuxHandshake(conn, codecName); err != nil {
		return nil, nil, err
	}
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	fc, err := newFramedCodec(codecName, br, conn)
	if err != nil {
		putReader(br)
		return nil, nil, err
	}
	l := link{fc}
	ch.Version = ProtocolVersion
	if err := l.send(&Envelope{Kind: KindClientHello, Client: &ch}); err != nil {
		fc.release()
		return nil, nil, err
	}
	if err := fc.Flush(); err != nil {
		fc.release()
		return nil, nil, classify(err)
	}
	e, err := l.recv(KindHello)
	if err != nil {
		fc.release()
		return nil, nil, err
	}
	if ioTimeout > 0 {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			fc.release()
			return nil, nil, err
		}
	}
	m := &MuxConn{
		conn:     conn,
		fc:       fc,
		name:     codecName,
		hello:    e.Hello,
		io:       ioTimeout,
		sessions: make(map[uint64]*MuxSession),
		dead:     make(chan struct{}),
	}
	go m.readLoop()
	return m, e.Hello, nil
}

// Hello returns the connection-level Hello — the market listing the
// handshake probe used to require a second dial for.
func (m *MuxConn) Hello() *Hello { return m.hello }

// Err returns the terminal connection error, or nil while the connection
// is healthy. Pools use it to prune dead warm connections.
func (m *MuxConn) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Active returns the number of open sessions, for least-loaded pool
// distribution.
func (m *MuxConn) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Close tears the connection down; every open session fails with
// ErrMuxClosed.
func (m *MuxConn) Close() error {
	m.fail(ErrMuxClosed)
	return nil
}

func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	first := m.err == nil
	if first {
		m.err = err
		close(m.dead)
	}
	m.mu.Unlock()
	if first {
		_ = m.conn.Close()
	}
}

func (m *MuxConn) readLoop() {
	for {
		e, err := m.fc.Recv()
		if err != nil {
			m.fail(classify(fmt.Errorf("wire: mux conn: %w", err)))
			// The send path checks Err before touching the codec, so the
			// buffers can be recycled once the writer mutex is free.
			m.wmu.Lock()
			m.fc.release()
			m.wmu.Unlock()
			return
		}
		m.mu.Lock()
		s := m.sessions[e.SID]
		m.mu.Unlock()
		if s == nil {
			continue // a late frame for a finished session
		}
		select {
		case s.inbox <- e:
		default:
			m.fail(fmt.Errorf("wire: mux conn: session %d inbox overflow", e.SID))
		}
	}
}

func (m *MuxConn) send(e *Envelope) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.Err(); err != nil {
		return err
	}
	if m.io > 0 {
		if err := m.conn.SetWriteDeadline(time.Now().Add(m.io)); err != nil {
			return err
		}
	}
	if err := m.fc.Send(e); err != nil {
		err = classify(fmt.Errorf("wire: mux send: %w", err))
		m.fail(err)
		return err
	}
	return nil
}

func (m *MuxConn) flush() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.Err(); err != nil {
		return err
	}
	if m.io > 0 {
		if err := m.conn.SetWriteDeadline(time.Now().Add(m.io)); err != nil {
			return err
		}
	}
	if err := m.fc.Flush(); err != nil {
		err = classify(fmt.Errorf("wire: mux flush: %w", err))
		m.fail(err)
		return err
	}
	return nil
}

func (m *MuxConn) register(ctx context.Context, ioTimeout time.Duration) (*MuxSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextSID++
	s := &MuxSession{
		mc:    m,
		sid:   m.nextSID,
		ctx:   ctx,
		io:    ioTimeout,
		inbox: make(chan *Envelope, muxInboxCap),
	}
	m.sessions[s.sid] = s
	return s, nil
}

func (m *MuxConn) drop(s *MuxSession) {
	m.mu.Lock()
	delete(m.sessions, s.sid)
	m.mu.Unlock()
}

// Open starts one session over the connection: a KindOpen carrying the
// per-session ClientHello, answered on the same SID with the server's
// Hello (or a typed refusal — rejection, busy, redirect — surfaced as
// ErrRejected, ErrServerBusy or a *RedirectError). The session's receives
// are bounded by ioTimeout and watch ctx.
func (m *MuxConn) Open(ctx context.Context, ch ClientHello, ioTimeout time.Duration) (*MuxSession, *Hello, error) {
	ch.Version = ProtocolVersion
	s, err := m.register(ctx, ioTimeout)
	if err != nil {
		return nil, nil, err
	}
	env := getEnvelope()
	env.Kind = KindOpen
	env.SID = s.sid
	env.Client = &ch
	err = m.send(env)
	putEnvelope(env)
	if err != nil {
		m.drop(s)
		return nil, nil, err
	}
	e, err := link{s}.recv(KindHello)
	if err != nil {
		m.drop(s)
		return nil, nil, err
	}
	return s, e.Hello, nil
}

// Stats performs the admin metrics read over an open session slot — the
// pooled-connection replacement for a fresh StatsOnly dial.
func (m *MuxConn) Stats(ctx context.Context, ioTimeout time.Duration) (*StatsReport, error) {
	s, err := m.register(ctx, ioTimeout)
	if err != nil {
		return nil, err
	}
	defer m.drop(s)
	env := getEnvelope()
	env.Kind = KindOpen
	env.SID = s.sid
	env.Client = &ClientHello{Version: ProtocolVersion, StatsOnly: true}
	err = m.send(env)
	putEnvelope(env)
	if err != nil {
		return nil, err
	}
	e, err := link{s}.recv(KindStats)
	if err != nil {
		return nil, fmt.Errorf("wire: fetch stats: %w", err)
	}
	return e.Stats, nil
}

// MuxSession is one client session of a multiplexed connection. It
// implements Codec: sends stamp the session ID and buffer on the shared
// writer, receives flush pending output first (the framed wire's
// flush-before-blocking-read discipline) and then wait on this session's
// inbox under its own timer — a stalled sibling stream cannot block it.
type MuxSession struct {
	mc    *MuxConn
	sid   uint64
	ctx   context.Context
	io    time.Duration
	inbox chan *Envelope
	timer *time.Timer // reused across Recvs; Recv is serialized per session
}

// SID returns the session's ID on its connection.
func (s *MuxSession) SID() uint64 { return s.sid }

func (s *MuxSession) Name() string { return s.mc.name }

func (s *MuxSession) Send(e *Envelope) error {
	e.SID = s.sid
	return s.mc.send(e)
}

// Flush exposes the connection flush so Codec helpers can push a final
// buffered frame.
func (s *MuxSession) Flush() error { return s.mc.flush() }

func (s *MuxSession) Recv() (*Envelope, error) {
	if e, ok := queued(s.inbox); ok {
		return e, nil
	}
	if err := s.mc.flush(); err != nil {
		return queuedOr(s.inbox, err)
	}
	var timerC <-chan time.Time
	if s.io > 0 {
		if s.timer == nil {
			s.timer = time.NewTimer(s.io)
		} else {
			s.timer.Reset(s.io)
		}
		defer s.timer.Stop()
		timerC = s.timer.C
	}
	var ctxDone <-chan struct{}
	if s.ctx != nil {
		ctxDone = s.ctx.Done()
	}
	select {
	case e := <-s.inbox:
		return e, nil
	case <-timerC:
		return nil, fmt.Errorf("%w: session %d idle past %v", ErrPeerTimeout, s.sid, s.io)
	case <-s.mc.dead:
		return queuedOr(s.inbox, s.mc.Err())
	case <-ctxDone:
		s.Close()
		return nil, s.ctx.Err()
	}
}

// Close abandons the session: it is unregistered locally and a KindCancel
// tells the server to tear down its end without touching sibling sessions.
// Best effort and idempotent.
func (s *MuxSession) Close() {
	s.mc.drop(s)
	env := getEnvelope()
	env.Kind = KindCancel
	env.SID = s.sid
	if s.mc.send(env) == nil {
		_ = s.mc.flush()
	}
	putEnvelope(env)
}

// CloseClean unregisters a session whose protocol ran to completion,
// flushing any buffered closing frames (a final walk-away or accept
// settlement the server is still owed). No cancel is sent — the server's
// end finishes on its own.
func (s *MuxSession) CloseClean() {
	s.mc.drop(s)
	_ = s.mc.flush()
}

// MuxServerConn is the server end of a multiplexed connection: it owns
// the demux loop, spawns one handler per KindOpen, and shares the framed
// send path between the streams.
type MuxServerConn struct {
	conn net.Conn
	fc   *framedCodec
	io   time.Duration
	idle time.Duration
	max  int

	wmu sync.Mutex

	mu       sync.Mutex
	sessions map[uint64]*MuxStream
	draining bool
	err      error
}

// NewMuxServerConn wraps a connection whose handshake AcceptHandshakeMux
// already completed, with the codec it returned; Serve takes the codec over
// and releases it. maxSessions bounds concurrently open streams per
// connection (<= 0 means unbounded); opens beyond it are answered KindBusy.
// idle is the whole-connection read deadline between envelopes: 0 picks the
// default of idleFactor x the IO timeout, < 0 disables the idle deadline.
func NewMuxServerConn(conn net.Conn, c Codec, ioTimeout, idle time.Duration, maxSessions int) (*MuxServerConn, error) {
	fc, ok := c.(*framedCodec)
	if !ok {
		return nil, fmt.Errorf("wire: mux serve needs the framed codec from AcceptHandshakeMux, got %T", c)
	}
	if idle == 0 && ioTimeout > 0 {
		idle = idleFactor * ioTimeout
	}
	return &MuxServerConn{
		conn:     conn,
		fc:       fc,
		io:       ioTimeout,
		idle:     idle,
		max:      maxSessions,
		sessions: make(map[uint64]*MuxStream),
	}, nil
}

// SendHello writes the connection-level Hello that answers the handshake
// probe, flushing it to the client.
func (sc *MuxServerConn) SendHello(h *Hello) error {
	if err := sc.send(&Envelope{Kind: KindHello, Hello: h}); err != nil {
		return err
	}
	return sc.flush()
}

// Serve runs the demux loop until the connection dies or is closed: every
// KindOpen spawns handler in its own goroutine with a MuxStream scoped to
// that session. Serve returns after all handlers have finished. The idle
// read deadline defaults to a generous idleFactor x the IO timeout (see
// NewMuxServerConn) so active streams' own receive timers fire first,
// while abandoned connections are still reaped.
func (sc *MuxServerConn) Serve(handler func(st *MuxStream, ch *ClientHello)) error {
	var wg sync.WaitGroup
	idle := sc.idle
	if idle < 0 {
		idle = 0
	}
	var err error
	for {
		if idle > 0 {
			if derr := sc.conn.SetReadDeadline(time.Now().Add(idle)); derr != nil {
				err = derr
				break
			}
		}
		e, rerr := sc.fc.Recv()
		if rerr != nil {
			err = classify(fmt.Errorf("wire: mux conn: %w", rerr))
			break
		}
		switch e.Kind {
		case KindOpen:
			if e.Client == nil {
				sc.replySID(e.SID, KindError, "open without a client hello")
				continue
			}
			st, ok := sc.admit(e.SID)
			if !ok {
				sc.replySID(e.SID, KindBusy, "connection session limit reached")
				continue
			}
			wg.Add(1)
			go func(st *MuxStream, ch *ClientHello) {
				defer wg.Done()
				handler(st, ch)
				_ = sc.flush() // push any buffered closing frames
				sc.dropStream(st)
			}(st, e.Client)
		case KindCancel:
			sc.mu.Lock()
			st := sc.sessions[e.SID]
			sc.mu.Unlock()
			if st != nil {
				st.fail(fmt.Errorf("%w: session %d", ErrSessionCancelled, e.SID))
			}
		default:
			sc.mu.Lock()
			st := sc.sessions[e.SID]
			sc.mu.Unlock()
			if st == nil {
				continue // late frame for a finished session
			}
			select {
			case st.inbox <- e:
			default:
				st.fail(fmt.Errorf("wire: session %d inbox overflow", e.SID))
			}
		}
	}
	sc.failAll(err)
	wg.Wait()
	sc.wmu.Lock()
	sc.fc.release()
	sc.wmu.Unlock()
	return err
}

// admit registers a stream for a client-chosen SID, enforcing the drain
// state and the per-conn session cap.
func (sc *MuxServerConn) admit(sid uint64) (*MuxStream, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil || sc.draining {
		return nil, false
	}
	if sid == 0 || sc.sessions[sid] != nil {
		return nil, false
	}
	if sc.max > 0 && len(sc.sessions) >= sc.max {
		return nil, false
	}
	st := &MuxStream{
		sc:    sc,
		sid:   sid,
		io:    sc.io,
		inbox: make(chan *Envelope, muxInboxCap),
		dead:  make(chan struct{}),
	}
	sc.sessions[sid] = st
	return st, true
}

func (sc *MuxServerConn) dropStream(st *MuxStream) {
	sc.mu.Lock()
	delete(sc.sessions, st.sid)
	idle := sc.draining && len(sc.sessions) == 0
	sc.mu.Unlock()
	if idle {
		_ = sc.conn.Close()
	}
}

func (sc *MuxServerConn) failAll(err error) {
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	streams := make([]*MuxStream, 0, len(sc.sessions))
	for _, st := range sc.sessions {
		streams = append(streams, st)
	}
	sc.mu.Unlock()
	for _, st := range streams {
		st.fail(err)
	}
}

// Drain stops admitting new streams and closes the connection as soon as
// the open ones finish (immediately if idle) — the mux half of graceful
// shutdown.
func (sc *MuxServerConn) Drain() {
	sc.mu.Lock()
	sc.draining = true
	idle := len(sc.sessions) == 0
	sc.mu.Unlock()
	if idle {
		_ = sc.conn.Close()
	}
}

// Close severs the connection; Serve unwinds and fails every open stream.
func (sc *MuxServerConn) Close() error { return sc.conn.Close() }

func (sc *MuxServerConn) send(e *Envelope) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.io > 0 {
		if err := sc.conn.SetWriteDeadline(time.Now().Add(sc.io)); err != nil {
			return err
		}
	}
	if err := sc.fc.Send(e); err != nil {
		return classify(fmt.Errorf("wire: mux send: %w", err))
	}
	return nil
}

func (sc *MuxServerConn) flush() error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.io > 0 {
		if err := sc.conn.SetWriteDeadline(time.Now().Add(sc.io)); err != nil {
			return err
		}
	}
	if err := sc.fc.Flush(); err != nil {
		return classify(fmt.Errorf("wire: mux flush: %w", err))
	}
	return nil
}

// replySID answers a session-less protocol event (bad open, session cap)
// on the offending SID, best effort.
func (sc *MuxServerConn) replySID(sid uint64, kind Kind, msg string) {
	_ = sc.send(&Envelope{Kind: kind, SID: sid, Err: &ErrorMsg{Msg: msg}})
	_ = sc.flush()
}

// MuxStream is one server-side session of a multiplexed connection. It
// implements Codec with the same discipline as the client end: stamped,
// buffered sends; flush-before-blocking receives under a per-stream timer.
// It also implements io.Closer so market eviction (live migration) can
// sever exactly the streams of the evicted market.
type MuxStream struct {
	sc    *MuxServerConn
	sid   uint64
	io    time.Duration
	inbox chan *Envelope
	timer *time.Timer // reused across Recvs; Recv is serialized per stream

	mu      sync.Mutex
	err     error
	dead    chan struct{}
	evicted bool
}

// SID returns the stream's session ID on its connection.
func (st *MuxStream) SID() uint64 { return st.sid }

func (st *MuxStream) Name() string { return st.sc.fc.name }

func (st *MuxStream) Send(e *Envelope) error {
	if err := st.Err(); err != nil {
		return err
	}
	e.SID = st.sid
	return st.sc.send(e)
}

// Flush pushes this stream's buffered frames (shared with its siblings) to
// the connection.
func (st *MuxStream) Flush() error { return st.sc.flush() }

func (st *MuxStream) Recv() (*Envelope, error) {
	if e, ok := queued(st.inbox); ok {
		return e, nil
	}
	if err := st.sc.flush(); err != nil {
		return queuedOr(st.inbox, err)
	}
	var timerC <-chan time.Time
	if st.io > 0 {
		if st.timer == nil {
			st.timer = time.NewTimer(st.io)
		} else {
			st.timer.Reset(st.io)
		}
		defer st.timer.Stop()
		timerC = st.timer.C
	}
	select {
	case e := <-st.inbox:
		return e, nil
	case <-timerC:
		return nil, fmt.Errorf("%w: session %d idle past %v", ErrPeerTimeout, st.sid, st.io)
	case <-st.dead:
		return queuedOr(st.inbox, st.Err())
	}
}

// queued takes an envelope already delivered to inbox, without blocking.
func queued(inbox chan *Envelope) (*Envelope, bool) {
	select {
	case e := <-inbox:
		return e, true
	default:
		return nil, false
	}
}

// queuedOr prefers an envelope already delivered to inbox over the
// connection error err. The demux loop queues a peer's last frame before it
// reads the EOF behind it, so when a receive wakes on a dead connection
// while that frame is queued — select picks at random between ready cases —
// the frame wins and a session that completed is not reported as dropped.
func queuedOr(inbox chan *Envelope, err error) (*Envelope, error) {
	if e, ok := queued(inbox); ok {
		return e, nil
	}
	return nil, err
}

// Err returns the stream's terminal error, if any.
func (st *MuxStream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

func (st *MuxStream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
		close(st.dead)
	}
	st.mu.Unlock()
}

// Close severs this stream only: the client is told (KindBusy on the SID,
// so it backs off and retries — after a migration the retry follows the
// redirect to the new owner) and the stream's handler unwinds with
// ErrSessionEvicted. Sibling streams and the connection are untouched.
// Implements io.Closer for the market eviction path.
func (st *MuxStream) Close() error {
	st.mu.Lock()
	already := st.evicted
	st.evicted = true
	st.mu.Unlock()
	if already {
		return nil
	}
	st.sc.replySID(st.sid, KindBusy, "session severed: market evicted for migration")
	st.fail(ErrSessionEvicted)
	return nil
}
