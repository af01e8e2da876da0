package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The session mux turns one framed connection into a fabric of
// independent bargaining sessions. Both ends are built from one core,
// muxEnd: one mutex-serialized writer shares the buffered send path, and
// every session — a client MuxSession or a server MuxStream — is a
// muxSlot. No goroutine sits between a session and the socket. A receive
// that finds nothing queued takes the connection's read baton and reads
// for itself: it keeps its own frame and routes any other to that
// session's bounded inbox, so a lone session's round crosses no goroutine
// hand-off on either end. A receive that finds the baton taken waits on
// its inbox until the holder routes it a frame or hands the baton over.
//
// Stall detection is per session: a waiting receive runs its own timer,
// and the holder reads under the connection's read deadline, which it
// re-arms only when the armed one has passed, is later than its own
// deadline, or is missing. An earlier one that interrupts the read only
// sends the holder back to its checks. The framed codec consumes nothing
// until a whole frame is buffered, so a holder that times out leaves the
// stream intact for the next reader, and no wedged session can starve its
// siblings. Writes arm the write deadline only when bytes reach the
// connection: a flush with bytes buffered, or a send that overflows the
// buffer.
//
// The binary codec decodes each Quote, Offer, Settle or Ack frame into its
// session's box for that kind, whichever session's goroutine reads it, and
// onto the heap while that box is still queued or held. A session holds
// the envelope its Recv returned until its next Recv. The
// connection's own loop reads only while no session is registered: it
// notices an idle connection's death, admits a server's first session,
// and reaps an abandoned server connection after the idle deadline.

// muxInboxCap bounds the per-session inbox. The protocol is half-duplex
// per session with at most two server frames in flight (a pipelined Ack
// plus the Offer), so a full inbox means a broken peer, not backpressure.
const muxInboxCap = 16

// idleFactor scales the connection IO timeout into the server-side idle
// read deadline on a mux conn: active sessions' own receive timers must
// fire first, but an abandoned connection is still reaped.
const idleFactor = 4

// aLongTimeAgo is the read deadline that interrupts a blocked reader.
var aLongTimeAgo = time.Unix(1, 0)

// connLoop stands for the connection's own loop as the baton holder.
var connLoop muxSlot

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

// fate is a terminal error and the channel closed once it is set. A
// connection's fate also closes the connection.
type fate struct {
	closer io.Closer // nil for a session's own fate
	mu     sync.Mutex
	reason error
	dead   chan struct{}
}

// fail sets the terminal error, reporting whether this call was the one
// that set it.
func (f *fate) fail(err error) bool {
	f.mu.Lock()
	first := f.reason == nil
	if first {
		f.reason = err
		close(f.dead)
	}
	f.mu.Unlock()
	if first && f.closer != nil {
		_ = f.closer.Close()
	}
	return first
}

func (f *fate) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reason
}

// muxEnd is the core both ends of a mux connection share: the framed codec
// behind one locked write path, the table of open sessions by SID, the
// read baton, and the connection's fate.
type muxEnd struct {
	conn net.Conn
	fc   *framedCodec
	io   time.Duration // the write deadline of every send and flush
	idle time.Duration // the own loop's read deadline; <= 0 means none
	fate fate

	// control takes a server's connection-level frames (KindOpen,
	// KindCancel) off the read path, reporting whether it did; nil on a
	// client.
	control func(e *Envelope) bool

	wmu sync.Mutex // serializes fc's send path and flushes

	// baton holds its one token while nobody reads: a session's receive or
	// the own loop takes it to call fc.Recv and puts it back after.
	// Receives that find it taken queue on the channel in arrival order.
	baton chan struct{}

	// mu guards slots, reader, the baton's holder (a session's slot or
	// &connLoop; nil while free), and rdl, the connection's armed read
	// deadline (zero: none). A holder arms its read deadline under mu, so
	// a poke under mu is never overwritten.
	mu     sync.Mutex
	slots  map[uint64]*muxSlot
	reader *muxSlot
	rdl    time.Time
	wake   chan struct{} // tells the own loop the last session left
}

func (m *muxEnd) init(conn net.Conn, fc *framedCodec, ioTimeout time.Duration) {
	m.conn, m.fc, m.io = conn, fc, ioTimeout
	m.fate.closer = conn
	m.fate.dead = make(chan struct{})
	m.slots = make(map[uint64]*muxSlot)
	m.baton = make(chan struct{}, 1)
	m.baton <- struct{}{}
	m.wake = make(chan struct{}, 1)
	fc.boxes = m.boxesFor
}

// boxesFor returns the receive boxes of the session sid names, or nil if
// it is not open.
func (m *muxEnd) boxesFor(sid uint64) *envBoxes {
	if s := m.lookup(sid); s != nil {
		return &s.boxes
	}
	return nil
}

// fail ends the connection with err: its fate closes the conn, every open
// session fails with it, and the reader is interrupted even where closing
// the conn does not unblock its read.
func (m *muxEnd) fail(err error) {
	if !m.fate.fail(err) {
		return
	}
	m.mu.Lock()
	for _, s := range m.slots {
		s.fate.fail(err)
	}
	if m.reader != nil {
		m.rdl = aLongTimeAgo
		_ = m.conn.SetReadDeadline(aLongTimeAgo)
	}
	m.mu.Unlock()
}

// send buffers e on the shared writer and flush pushes the buffer to the
// connection, both under the writer lock. The write deadline is armed only
// where bytes reach the connection: a send whose frame overflows the
// buffer, or a flush with bytes buffered (an empty flush writes nothing).
// A failed write fails the whole connection: bufio.Writer errors are
// sticky, so no sibling session could send after it anyway.
func (m *muxEnd) send(e *Envelope) error { return m.write(e) }

func (m *muxEnd) flush() error { return m.write(nil) }

func (m *muxEnd) write(e *Envelope) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.fate.err(); err != nil {
		return err
	}
	fc := m.fc
	var err error
	switch {
	case e != nil:
		if err = fc.frame(e); err == nil {
			if fc.framed() > fc.bw.Available() {
				if err := m.armWrite(); err != nil {
					return err
				}
			}
			err = fc.push()
		}
	case fc.bw.Buffered() == 0:
		return nil
	default:
		if err := m.armWrite(); err != nil {
			return err
		}
		err = fc.Flush()
	}
	if err != nil {
		err = classify(fmt.Errorf("wire: mux write: %w", err))
		m.fail(err)
	}
	return err
}

// armWrite sets the write deadline of a write about to reach the
// connection.
func (m *muxEnd) armWrite() error {
	if m.io <= 0 {
		return nil
	}
	return m.conn.SetWriteDeadline(time.Now().Add(m.io))
}

// reply sends one control envelope on sid and flushes it, best effort.
func (m *muxEnd) reply(kind Kind, sid uint64, msg *ErrorMsg) {
	env := getEnvelope()
	env.Kind, env.SID, env.Err = kind, sid, msg
	if m.send(env) == nil {
		_ = m.flush()
	}
	putEnvelope(env)
}

// run is the connection's own loop. It reads while no session is
// registered and parks while sessions read for themselves. Once the
// connection is dead it keeps the baton for good and returns the codec's
// pooled buffers, so no reader touches them afterwards; the write path
// checks the fate before it touches the codec.
func (m *muxEnd) run() error {
	for {
		alive, err := m.loopTurn()
		if !alive {
			break
		}
		var e *Envelope
		if err == nil {
			e, err = m.fc.Recv()
		}
		if err != nil {
			m.fail(classify(fmt.Errorf("wire: mux conn: %w", err)))
		} else {
			m.deliver(e, nil)
		}
		m.release()
	}
	m.wmu.Lock()
	m.fc.release()
	m.wmu.Unlock()
	return m.fate.err()
}

// loopTurn blocks until the own loop holds the baton: alive with no
// session registered, its idle read deadline armed (or err if arming it
// failed), or on a dead connection.
func (m *muxEnd) loopTurn() (alive bool, err error) {
	for {
		m.mu.Lock()
		busy := len(m.slots) > 0
		m.mu.Unlock()
		if busy && m.fate.err() == nil {
			select {
			case <-m.wake:
			case <-m.fate.dead:
			}
			continue
		}
		<-m.baton
		m.mu.Lock()
		alive = m.fate.err() == nil
		if alive && len(m.slots) > 0 {
			m.mu.Unlock()
			m.baton <- struct{}{} // a session opened meanwhile: it reads
			continue
		}
		m.reader = &connLoop
		if alive {
			var dl time.Time
			if m.idle > 0 {
				dl = time.Now().Add(m.idle)
			}
			m.rdl = dl
			err = m.conn.SetReadDeadline(dl)
		}
		m.mu.Unlock()
		return alive, err
	}
}

// release puts the baton back, handing it to the longest-waiting receive.
func (m *muxEnd) release() {
	m.mu.Lock()
	m.reader = nil
	m.mu.Unlock()
	m.baton <- struct{}{}
}

// poke interrupts s if it holds the baton, by moving the read deadline
// into the past. The holder checks why it might stop under mu before it
// re-arms its deadline, so a poke that lands first is seen, not lost.
func (m *muxEnd) poke(s *muxSlot) {
	m.mu.Lock()
	if m.reader == s {
		m.rdl = aLongTimeAgo
		_ = m.conn.SetReadDeadline(aLongTimeAgo)
	}
	m.mu.Unlock()
}

// armRead, with mu held, lets the holder read until its deadline d (zero
// means none). The armed read deadline stays while it is ahead of now and
// no later than d: a read it interrupts before d loops back to the
// holder's checks, which find it passed and re-arm. It is re-armed when it
// has passed, is later than d, or is missing while d is set.
func (m *muxEnd) armRead(d, now time.Time) error {
	a := m.rdl
	if a.IsZero() && d.IsZero() || !a.IsZero() && now.Before(a) && (d.IsZero() || !d.Before(a)) {
		return nil
	}
	m.rdl = d
	return m.conn.SetReadDeadline(d)
}

// deliver takes a frame off the read path: a server's control frames to
// control, the holder's own frame back to it (true), any other to its
// session's inbox.
func (m *muxEnd) deliver(e *Envelope, holder *muxSlot) bool {
	if m.control != nil && m.control(e) {
		return false
	}
	if holder != nil && e.SID == holder.sid {
		return true
	}
	m.route(e)
	return false
}

func (m *muxEnd) lookup(sid uint64) *muxSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slots[sid]
}

// route hands e to its session's inbox. A frame for a session that is gone
// is dropped (a late frame for a finished session); a full inbox means a
// broken peer and fails the session's fate — on the client end, that is
// its connection's.
func (m *muxEnd) route(e *Envelope) {
	s := m.lookup(e.SID)
	if s == nil {
		return
	}
	select {
	case s.inbox <- e:
	default:
		s.fate.fail(fmt.Errorf("wire: mux conn: session %d inbox overflow", e.SID))
	}
}

// init builds a session's end of m; the caller registers it.
func (s *muxSlot) init(m *muxEnd, ctx context.Context, sid uint64, io time.Duration, f *fate) {
	s.m, s.sid, s.io, s.ctx, s.fate = m, sid, io, ctx, f
	s.inbox = make(chan *Envelope, muxInboxCap)
}

// drop unregisters s and returns how many sessions remain. The last one
// out hands the read path back to the own loop.
func (m *muxEnd) drop(s *muxSlot) int {
	if s.stop != nil {
		s.stop()
	}
	m.mu.Lock()
	delete(m.slots, s.sid)
	n := len(m.slots)
	m.mu.Unlock()
	if n == 0 {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	return n
}

// muxSlot is one session's end of a mux connection, the same on both ends.
// It implements Codec: sends stamp the session ID and buffer on the shared
// writer, receives flush pending output first (the framed wire's
// flush-before-blocking-read discipline) and then either read the
// connection under the baton or wait on this session's inbox, both under
// this session's own deadline — a stalled sibling cannot block it.
type muxSlot struct {
	m     *muxEnd
	sid   uint64
	io    time.Duration
	ctx   context.Context // a client session's; Background on a server stream
	stop  func() bool     // unhooks the poke on ctx's cancellation; nil if none
	fate  *fate           // a client session's is its connection's
	inbox chan *Envelope
	timer *time.Timer // reused across Recvs; Recv is serialized per session
	boxes envBoxes    // the per-round receive envelopes
	held  *Envelope   // what the last Recv returned, a box or not
}

func (s *muxSlot) Name() string { return s.m.fc.name }

func (s *muxSlot) Send(e *Envelope) error {
	if err := s.fate.err(); err != nil {
		return err
	}
	e.SID = s.sid
	return s.m.send(e)
}

// Flush pushes the connection's buffered frames, this session's and its
// siblings', to the peer.
func (s *muxSlot) Flush() error { return s.m.flush() }

// Recv returns the session's next envelope, valid until its next Recv: a
// per-round one may be a box of the session's, which that call puts back
// for the decoder to reuse.
func (s *muxSlot) Recv() (*Envelope, error) {
	if s.held != nil {
		s.boxes.put(s.held)
	}
	e, err := s.next()
	s.held = e
	return e, err
}

func (s *muxSlot) next() (*Envelope, error) {
	if e, ok := queued(s.inbox); ok {
		return e, nil
	}
	if err := s.m.flush(); err != nil {
		return queuedOr(s.inbox, err)
	}
	var deadline time.Time
	if s.io > 0 {
		deadline = time.Now().Add(s.io)
	}
	e, err := s.recv(deadline)
	if err != nil && err == s.ctx.Err() {
		s.cancel()
	}
	return e, err
}

// recv waits for this session's next envelope until deadline (zero means
// none), reading the connection itself whenever it can take the baton.
func (s *muxSlot) recv(deadline time.Time) (*Envelope, error) {
	select {
	case <-s.m.baton:
	default:
		if e, held, err := s.wait(deadline); !held {
			return e, err
		}
	}
	defer s.m.release()
	return s.read(deadline)
}

// wait blocks a receive that found the baton taken until its inbox fills,
// it must stop, or it takes the baton (held).
func (s *muxSlot) wait(deadline time.Time) (e *Envelope, held bool, err error) {
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		if s.timer == nil {
			s.timer = time.NewTimer(time.Until(deadline))
		} else {
			s.timer.Reset(time.Until(deadline))
		}
		defer s.timer.Stop()
		timerC = s.timer.C
	}
	select {
	case e := <-s.inbox:
		return e, false, nil
	case <-s.m.baton:
		return nil, true, nil
	case <-timerC:
		return nil, false, s.timeout()
	case <-s.fate.dead:
		e, err = queuedOr(s.inbox, s.fate.err())
		return e, false, err
	case <-s.ctx.Done():
		return nil, false, s.ctx.Err()
	}
}

// read reads the connection as the baton's holder until a frame of its
// own arrives, routing every other frame; it stops early on its session's
// end, a cancellation or its deadline. A frame routed to it before it took
// the baton comes first.
func (s *muxSlot) read(deadline time.Time) (*Envelope, error) {
	m := s.m
	for {
		m.mu.Lock()
		m.reader = s
		if e, ok := queued(s.inbox); ok {
			m.mu.Unlock()
			return e, nil
		}
		now := time.Now()
		if err := s.stopped(deadline, now); err != nil {
			m.mu.Unlock()
			return nil, err
		}
		err := m.armRead(deadline, now)
		m.mu.Unlock()
		var e *Envelope
		if err == nil {
			e, err = m.fc.Recv()
		}
		switch {
		case err == nil:
			if m.deliver(e, s) {
				return e, nil
			}
			continue
		case errors.Is(err, os.ErrDeadlineExceeded) && m.fate.err() == nil:
			continue // the deadline or a poke: the next pass says which
		}
		m.fail(classify(fmt.Errorf("wire: mux conn: %w", err)))
		// A stream's own fate may still be on its way from a concurrent fail.
		if err = s.fate.err(); err == nil {
			err = m.fate.err()
		}
		return queuedOr(s.inbox, err)
	}
}

// stopped reports, with m.mu held, why the holder must stop reading at
// now: its session's end, its context's cancellation, or its deadline.
func (s *muxSlot) stopped(deadline, now time.Time) error {
	if err := s.fate.err(); err != nil {
		return err
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && !now.Before(deadline) {
		return s.timeout()
	}
	return nil
}

func (s *muxSlot) timeout() error {
	return fmt.Errorf("%w: session %d idle past %v", ErrPeerTimeout, s.sid, s.io)
}

// kill ends this session alone with err, interrupting it mid-read.
func (s *muxSlot) kill(err error) {
	s.fate.fail(err)
	s.m.poke(s)
}

// cancel unregisters the session and tells the peer with a KindCancel to
// tear down its end without touching sibling sessions. Best effort and
// idempotent.
func (s *muxSlot) cancel() {
	s.m.drop(s)
	s.m.reply(KindCancel, s.sid, nil)
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
// connection error err. A reader routes a peer's last frame before it reads
// the EOF behind it, so when a receive wakes on a dead connection while
// that frame is queued — select picks at random between ready cases — the
// frame wins and a session that completed is not reported as dropped.
func queuedOr(inbox chan *Envelope, err error) (*Envelope, error) {
	if e, ok := queued(inbox); ok {
		return e, nil
	}
	return nil, err
}

// openConn performs a connection's opening under one deadline: the mux
// preamble naming codecName, the connection-level ClientHello ch, and the
// server's one answer of kind want (or a typed refusal). On success the
// caller owns the returned codec, and lifts the deadline if the connection
// outlives its opening.
func openConn(conn net.Conn, codecName string, ch *ClientHello, ioTimeout time.Duration, want Kind) (*framedCodec, *Envelope, error) {
	if ioTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return nil, nil, err
		}
	}
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	fc, err := newFramedCodec(codecName, br, conn)
	if err != nil {
		putReader(br)
		return nil, nil, err
	}
	ch.Version = ProtocolVersion
	l := link{fc}
	var e *Envelope
	// The preamble and the ClientHello leave in one write.
	err = writeMuxHandshake(fc.bw, codecName)
	if err == nil {
		err = l.send(&Envelope{Kind: KindClientHello, Client: ch})
	}
	if err == nil {
		err = classify(fc.Flush())
	}
	if err == nil {
		e, err = l.recv(want)
	}
	if err != nil {
		fc.release()
		return nil, nil, err
	}
	return fc, e, nil
}

// MuxConn is the client end of a multiplexed connection: one dial, one
// handshake, many concurrent sessions. Safe for concurrent use.
type MuxConn struct {
	muxEnd
	hello   *Hello
	nextSID uint64 // guarded by mu
}

// OpenMux upgrades a freshly dialed connection to a multiplexed session
// fabric: mux preamble, connection-level ClientHello (its Market names the
// market used for shard routing; ListOnly semantics — no session starts),
// and the server's Hello, which doubles as the listing probe. The caller
// owns the connection; on error it should close it. The handshake is
// bounded by ioTimeout; afterwards the connection idles without deadlines
// and individual sessions arm their own receive timers.
func OpenMux(conn net.Conn, codecName string, ch ClientHello, ioTimeout time.Duration) (*MuxConn, *Hello, error) {
	fc, e, err := openConn(conn, codecName, &ch, ioTimeout, KindHello)
	if err == nil && ioTimeout > 0 {
		if err = conn.SetDeadline(time.Time{}); err != nil {
			fc.release()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	m := &MuxConn{hello: e.Hello}
	m.init(conn, fc, ioTimeout)
	go m.run()
	return m, e.Hello, nil
}

// FetchStats performs the admin exchange on a fresh connection: the mux
// preamble naming CodecBinary, a connection-level StatsOnly hello, and the
// server's KindStats answer. It is the over-the-wire metrics read the
// fabric rebalancer and the cluster health prober consume in place of
// in-process Server.Metrics calls.
//
// The exchange runs under ioTimeout (<= 0 means no deadline), and ctx
// bounds it too: cancelling ctx, or reaching its deadline, severs the
// connection at once, so a probe against a stalled shard returns when the
// caller's budget expires. The caller owns the connection, which keeps
// the exchange's deadline: it is spent once the answer arrives.
func FetchStats(ctx context.Context, conn net.Conn, ioTimeout time.Duration) (*StatsReport, error) {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	fc, e, err := openConn(conn, CodecBinary, &ClientHello{StatsOnly: true}, ioTimeout, KindStats)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, fmt.Errorf("wire: fetch stats: %w", err)
	}
	fc.release()
	return e.Stats, nil
}

// Hello returns the connection-level Hello — the market listing the
// handshake probe used to require a second dial for.
func (m *MuxConn) Hello() *Hello { return m.hello }

// Err returns the terminal connection error, or nil while the connection
// is healthy. Pools use it to prune dead warm connections.
func (m *MuxConn) Err() error { return m.fate.err() }

// Active returns the number of open sessions, for least-loaded pool
// distribution.
func (m *MuxConn) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots)
}

// Close tears the connection down; every open session fails with
// ErrMuxClosed.
func (m *MuxConn) Close() error {
	m.fail(ErrMuxClosed)
	return nil
}

func (m *MuxConn) register(ctx context.Context, ioTimeout time.Duration) (*MuxSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fate.err(); err != nil {
		return nil, err
	}
	m.nextSID++
	s := new(MuxSession)
	s.init(&m.muxEnd, ctx, m.nextSID, ioTimeout, &m.fate)
	if ctx.Done() != nil {
		s.stop = context.AfterFunc(ctx, func() { m.poke(&s.muxSlot) })
	}
	m.slots[s.sid] = &s.muxSlot
	return s, nil
}

// open starts one session over the connection: a KindOpen carrying ch,
// answered on the same SID by one envelope of kind want or a typed refusal.
func (m *MuxConn) open(ctx context.Context, ch *ClientHello, ioTimeout time.Duration, want Kind) (*MuxSession, *Envelope, error) {
	ch.Version = ProtocolVersion
	s, err := m.register(ctx, ioTimeout)
	if err != nil {
		return nil, nil, err
	}
	env := getEnvelope()
	env.Kind, env.SID, env.Client = KindOpen, s.sid, ch
	err = m.send(env)
	putEnvelope(env)
	var e *Envelope
	if err == nil {
		e, err = link{s}.recv(want)
	}
	if err != nil {
		m.drop(&s.muxSlot)
		return nil, nil, err
	}
	return s, e, nil
}

// Open starts one session over the connection: a KindOpen carrying the
// per-session ClientHello, answered on the same SID with the server's
// Hello (or a typed refusal — rejection, busy, redirect — surfaced as
// ErrRejected, ErrServerBusy or a *RedirectError). The session's receives
// are bounded by ioTimeout and watch ctx.
func (m *MuxConn) Open(ctx context.Context, ch ClientHello, ioTimeout time.Duration) (*MuxSession, *Hello, error) {
	s, e, err := m.open(ctx, &ch, ioTimeout, KindHello)
	if err != nil {
		return nil, nil, err
	}
	return s, e.Hello, nil
}

// Stats performs the admin metrics read over an open session slot — the
// pooled-connection replacement for a fresh StatsOnly dial.
func (m *MuxConn) Stats(ctx context.Context, ioTimeout time.Duration) (*StatsReport, error) {
	s, e, err := m.open(ctx, &ClientHello{StatsOnly: true}, ioTimeout, KindStats)
	if err != nil {
		return nil, fmt.Errorf("wire: fetch stats: %w", err)
	}
	m.drop(&s.muxSlot)
	return e.Stats, nil
}

// MuxSession is one client session of a multiplexed connection. It
// implements Codec through its muxSlot and shares its connection's fate.
type MuxSession struct {
	muxSlot
}

// Close abandons the session: it is unregistered locally and a KindCancel
// tells the server to tear down its end without touching sibling sessions.
// Best effort and idempotent.
func (s *MuxSession) Close() { s.cancel() }

// CloseClean unregisters a session whose protocol ran to completion,
// flushing any buffered closing frames (a final walk-away or accept
// settlement the server is still owed). No cancel is sent — the server's
// end finishes on its own.
func (s *MuxSession) CloseClean() {
	s.m.drop(&s.muxSlot)
	_ = s.m.flush()
}

// MuxServerConn is the server end of a multiplexed connection: it admits
// one stream per KindOpen, runs a handler for each, and shares the framed
// send path between the streams.
type MuxServerConn struct {
	muxEnd
	max      int
	draining bool // guarded by mu
	handler  func(st *MuxStream, ch *ClientHello)
	handlers sync.WaitGroup
}

// NewMuxServerConn wraps a connection whose handshake AcceptHandshakeMux
// already completed, with the codec it returned; Serve takes the codec over
// and releases it. maxSessions bounds concurrently open streams per
// connection (<= 0 means unbounded); opens beyond it are answered KindBusy.
// idle is the read deadline of a connection with no open stream: 0 picks
// the default of idleFactor x the IO timeout, < 0 disables it.
func NewMuxServerConn(conn net.Conn, c Codec, ioTimeout, idle time.Duration, maxSessions int) (*MuxServerConn, error) {
	fc, ok := c.(*framedCodec)
	if !ok {
		return nil, fmt.Errorf("wire: mux serve needs the framed codec from AcceptHandshakeMux, got %T", c)
	}
	if idle == 0 && ioTimeout > 0 {
		idle = idleFactor * ioTimeout
	}
	sc := &MuxServerConn{max: maxSessions}
	sc.init(conn, fc, ioTimeout)
	sc.idle = idle
	sc.control = sc.dispatch
	return sc, nil
}

// SendHello writes the connection-level Hello that answers the handshake
// probe, flushing it to the client.
func (sc *MuxServerConn) SendHello(h *Hello) error {
	if err := sc.send(&Envelope{Kind: KindHello, Hello: h}); err != nil {
		return err
	}
	return sc.flush()
}

// Serve runs the connection until it dies or is closed: every KindOpen
// spawns handler in its own goroutine with a MuxStream scoped to that
// session. Serve's own loop reads while no stream is open, under the idle
// read deadline (see NewMuxServerConn), so an abandoned connection is
// reaped; open streams read for themselves. Serve returns the error that
// ended the connection after all handlers have finished.
func (sc *MuxServerConn) Serve(handler func(st *MuxStream, ch *ClientHello)) error {
	sc.handler = handler
	err := sc.run()
	sc.handlers.Wait()
	return err
}

// dispatch takes the connection-level frames off the read path, for
// Serve's loop and a stream reading under the baton alike: a KindOpen
// admits a stream and starts its handler, a KindCancel ends the stream it
// names. It reports whether e was one of them.
func (sc *MuxServerConn) dispatch(e *Envelope) bool {
	switch e.Kind {
	case KindOpen:
		if e.Client == nil {
			sc.reply(KindError, e.SID, &ErrorMsg{Msg: "open without a client hello"})
			return true
		}
		st, ok := sc.admit(e.SID)
		if !ok {
			sc.reply(KindBusy, e.SID, &ErrorMsg{Msg: "connection session limit reached"})
			return true
		}
		// The reader is Serve's loop, before Serve waits, or a stream whose
		// own handler is still counted: Add never races Wait at zero.
		sc.handlers.Add(1)
		go sc.serveStream(st, e.Client)
	case KindCancel:
		if s := sc.lookup(e.SID); s != nil {
			s.kill(fmt.Errorf("%w: session %d", ErrSessionCancelled, e.SID))
		}
	default:
		return false
	}
	return true
}

func (sc *MuxServerConn) serveStream(st *MuxStream, ch *ClientHello) {
	defer sc.handlers.Done()
	sc.handler(st, ch)
	_ = sc.flush() // push any buffered closing frames
	sc.dropStream(st)
}

// admit registers a stream for a client-chosen SID, enforcing the drain
// state and the per-conn session cap.
func (sc *MuxServerConn) admit(sid uint64) (*MuxStream, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.fate.err() != nil || sc.draining || sid == 0 || sc.slots[sid] != nil ||
		(sc.max > 0 && len(sc.slots) >= sc.max) {
		return nil, false
	}
	st := &MuxStream{own: fate{dead: make(chan struct{})}}
	st.init(&sc.muxEnd, context.Background(), sid, sc.io, &st.own)
	sc.slots[sid] = &st.muxSlot
	return st, true
}

func (sc *MuxServerConn) dropStream(st *MuxStream) {
	if sc.drop(&st.muxSlot) > 0 {
		return
	}
	sc.mu.Lock()
	draining := sc.draining
	sc.mu.Unlock()
	if draining {
		_ = sc.conn.Close()
	}
}

// Drain stops admitting new streams and closes the connection as soon as
// the open ones finish (immediately if idle) — the mux half of graceful
// shutdown.
func (sc *MuxServerConn) Drain() {
	sc.mu.Lock()
	sc.draining = true
	idle := len(sc.slots) == 0
	sc.mu.Unlock()
	if idle {
		_ = sc.conn.Close()
	}
}

// Close severs the connection: every open stream fails with ErrMuxClosed
// and Serve unwinds.
func (sc *MuxServerConn) Close() error {
	sc.fail(ErrMuxClosed)
	return nil
}

// MuxStream is one server-side session of a multiplexed connection. It
// implements Codec through its muxSlot, with a fate of its own: a cancel,
// an eviction or an inbox overflow ends this stream only. It also
// implements io.Closer so market eviction (live migration) can sever
// exactly the streams of the evicted market.
type MuxStream struct {
	muxSlot
	own     fate
	evicted atomic.Bool
}

// Close severs this stream only: the client is told (KindBusy on the SID,
// so it backs off and retries — after a migration the retry follows the
// redirect to the new owner) and the stream's handler unwinds with
// ErrSessionEvicted. Sibling streams and the connection are untouched.
// Implements io.Closer for the market eviction path.
func (st *MuxStream) Close() error {
	if st.evicted.Swap(true) {
		return nil
	}
	st.m.reply(KindBusy, st.sid, &ErrorMsg{Msg: "session severed: market evicted for migration"})
	st.kill(ErrSessionEvicted)
	return nil
}
