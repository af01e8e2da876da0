package wire

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/secure"
)

// answerEcho opens every connection with the Hello of the market "echo".
func answerEcho(*ClientHello) *Envelope {
	return &Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "echo"}}
}

// startMux runs a MuxServerConn over loopback that calls handler for every
// stream, and returns the client end of the connection. ioTimeout is the
// per-stream receive timer on both ends and bounds the server's handshake
// read; the client's opening gets a fixed 5s. The connection hello names
// the market "echo".
func startMux(t *testing.T, ioTimeout time.Duration, handler func(st *MuxStream, ch *ClientHello)) (*MuxConn, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc, err := AcceptMux(conn, ioTimeout, 0, 0, answerEcho)
		if err != nil || sc == nil {
			t.Errorf("mux handshake: %v", err)
			return
		}
		_ = sc.Serve(handler)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc, hello, err := OpenMux(conn, CodecBinary, ClientHello{Market: "echo", ListOnly: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Market != "echo" {
		t.Fatalf("probe hello market = %q", hello.Market)
	}
	return mc, func() {
		mc.Close()
		ln.Close()
		<-done
	}
}

// startMuxEcho is startMux with a handler that answers every received
// envelope with an echo of its round stamped KindAck — enough protocol to
// measure liveness per stream without a full market.
func startMuxEcho(t *testing.T, ioTimeout time.Duration) (*MuxConn, func()) {
	return startMux(t, ioTimeout, func(st *MuxStream, ch *ClientHello) {
		if err := st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "echo"}}); err != nil {
			return
		}
		for {
			e, err := st.Recv()
			if err != nil {
				return
			}
			if err := st.Send(&Envelope{Kind: KindAck, Ack: &Ack{Round: e.Quote.Round}}); err != nil {
				return
			}
		}
	})
}

// TestMuxStalledStreamDoesNotBlockSiblings is the head-of-line-blocking
// guarantee: one stream goes silent after opening — its server handler is
// parked in Recv — while a sibling stream on the same connection keeps
// doing round trips. The sibling must stay at full liveness the whole
// time, the stalled stream must fail on ITS OWN per-stream timer (not a
// connection deadline), and its death must leave the sibling and the
// connection intact.
func TestMuxStalledStreamDoesNotBlockSiblings(t *testing.T) {
	const ioTimeout = 300 * time.Millisecond
	mc, shutdown := startMuxEcho(t, ioTimeout)
	defer shutdown()

	// Stream 1 opens and then never sends: the server handler sits in Recv
	// on its per-stream timer.
	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled stream's receive runs concurrently with the sibling's
	// traffic: it must fail on ITS OWN per-stream timer while the sibling
	// is mid-conversation on the same connection.
	s1Err := make(chan error, 1)
	go func() {
		_, err := (link{s1}).recv(KindAck)
		s1Err <- err
	}()

	// Stream 2 does continuous round trips for several multiples of the IO
	// timeout — long enough that any connection-level deadline or demux
	// blockage caused by the stalled sibling would surface.
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var rounds atomic.Int64
	deadline := time.Now().Add(4 * ioTimeout)
	l2 := link{s2}
	for round := 1; time.Now().Before(deadline); round++ {
		if err := l2.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: round}}); err != nil {
			t.Fatalf("sibling send at round %d: %v", round, err)
		}
		e, err := l2.recv(KindAck)
		if err != nil {
			t.Fatalf("sibling recv at round %d: %v", round, err)
		}
		if e.Ack.Round != round {
			t.Fatalf("sibling echo got round %d, want %d", e.Ack.Round, round)
		}
		rounds.Add(1)
	}
	if rounds.Load() < 100 {
		t.Fatalf("sibling managed only %d round trips alongside a stalled stream", rounds.Load())
	}

	// The stalled stream timed out on its own per-stream timer mid-loop —
	// not on any connection deadline — and its death must have left the
	// sibling's conversation and the connection intact.
	select {
	case err := <-s1Err:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("stalled stream recv = %v, want ErrPeerTimeout", err)
		}
	default:
		t.Fatal("stalled stream still blocked after 4x its receive timeout")
	}
	s1.Close()
	if err := mc.Err(); err != nil {
		t.Fatalf("stalled stream killed the shared connection: %v", err)
	}

	// And the sibling still works right after the stalled stream died.
	if err := l2.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: 9999}}); err != nil {
		t.Fatal(err)
	}
	if e, err := l2.recv(KindAck); err != nil || e.Ack.Round != 9999 {
		t.Fatalf("sibling after stalled-stream death: e=%+v err=%v", e, err)
	}
	s2.Close()
}

// TestMuxSessionCapAnswersBusy pins the per-connection stream cap: opens
// beyond maxSessions are answered KindBusy on their own SID without
// disturbing admitted streams.
func TestMuxSessionCapAnswersBusy(t *testing.T) {
	const ioTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc, err := AcceptMux(conn, ioTimeout, 0, 1, answerEcho) // one stream only
		if err != nil || sc == nil {
			return
		}
		_ = sc.Serve(func(st *MuxStream, ch *ClientHello) {
			if st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "echo"}}) != nil {
				return
			}
			for {
				if _, err := st.Recv(); err != nil {
					return
				}
			}
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := OpenMux(conn, CodecBinary, ClientHello{Market: "echo", ListOnly: true}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap open = %v, want ErrServerBusy", err)
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("cap refusal killed the connection: %v", err)
	}
	s1.Close()
}

// hookConn is a net.Conn whose writes run a callback first. Only Write and
// Close are used by the tests below.
type hookConn struct {
	net.Conn
	onWrite func() error
}

func (c *hookConn) Write(p []byte) (int, error) {
	if err := c.onWrite(); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *hookConn) Close() error { return nil }

// TestMuxRecvPrefersQueuedEnvelope pins the teardown race behind spurious
// Dropped sessions: a peer's last frame and its EOF arrive together, so by
// the time a receive blocks, the envelope is queued AND the connection is
// dead. Recv must return the envelope every time, on both ends of the mux.
// The hook makes the window deterministic: Recv's pre-block flush writes
// to the connection, and that write queues the envelope and fails the
// connection before Recv reaches its select. Every other iteration the
// flush itself fails too.
func TestMuxRecvPrefersQueuedEnvelope(t *testing.T) {
	want := &Envelope{Kind: KindSettle, Settle: &Settle{Round: 9, Decision: core.SettleAccept}}
	conn := &hookConn{}
	newCodec := func() *framedCodec {
		fc, err := newFramedCodec(CodecBinary, bufio.NewReader(eofReader{}), conn)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}

	t.Run("server-stream", func(t *testing.T) {
		for i := 0; i < 1000; i++ {
			sc := newMuxServerConn(conn, newCodec(), 0, 0, 0)
			st, ok := sc.admit(1)
			if !ok {
				t.Fatal("admit refused")
			}
			// A buffered frame, so Recv's flush reaches the connection.
			if err := st.Send(&Envelope{Kind: KindAck, Ack: &Ack{Round: i}}); err != nil {
				t.Fatal(err)
			}
			conn.onWrite = func() error {
				st.inbox <- want
				st.own.fail(io.EOF)
				if i%2 == 1 {
					return io.ErrClosedPipe
				}
				return nil
			}
			got, err := st.Recv()
			if err != nil || got != want {
				t.Fatalf("iteration %d: Recv = %v, %v; want the queued envelope", i, got, err)
			}
		}
	})

	t.Run("client-session", func(t *testing.T) {
		for i := 0; i < 1000; i++ {
			m := &MuxConn{}
			m.init(conn, newCodec(), 0)
			s, err := m.register(context.Background(), time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: i}}); err != nil {
				t.Fatal(err)
			}
			conn.onWrite = func() error {
				s.inbox <- want
				m.fail(io.EOF)
				if i%2 == 1 {
					return io.ErrClosedPipe
				}
				return nil
			}
			got, err := s.Recv()
			if err != nil || got != want {
				t.Fatalf("iteration %d: Recv = %v, %v; want the queued envelope", i, got, err)
			}
		}
	})
}

// TestMuxServerWriteFailureFailsConnection pins the rule of the one write
// path on the server end: a write that fails on one stream fails the whole
// connection, as it does on the client end. bufio.Writer errors are
// sticky, so no sibling could send again anyway; a sibling blocked in Recv
// must learn at once with a transport error, not when its IO timer fires.
func TestMuxServerWriteFailureFailsConnection(t *testing.T) {
	const ioTimeout = 5 * time.Second
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	// Every server write fails. Only stream 2 ever writes: stream 1's
	// pre-block flush finds an empty buffer and writes nothing.
	conn := &hookConn{Conn: serverConn, onWrite: func() error { return io.ErrClosedPipe }}
	fc, err := newFramedCodec(CodecBinary, bufio.NewReader(serverConn), conn)
	if err != nil {
		t.Fatal(err)
	}
	sc := newMuxServerConn(conn, fc, ioTimeout, -1, 0)
	type recvResult struct {
		err  error
		took time.Duration
	}
	sibling := make(chan recvResult, 1)
	parked := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = sc.Serve(func(st *MuxStream, ch *ClientHello) {
			if st.SID() == 1 {
				close(parked)
				start := time.Now()
				_, err := st.Recv()
				sibling <- recvResult{err, time.Since(start)}
				return
			}
			<-parked
			// Give stream 1 time to block in Recv's select, so the failing
			// write lands on a parked sibling. The assertions hold in either
			// order; this only picks the order worth testing.
			time.Sleep(50 * time.Millisecond)
			if err := st.Send(&Envelope{Kind: KindAck, Ack: &Ack{Round: 1}}); err == nil {
				_ = st.Flush()
			}
		})
	}()

	client := newPipeCodec(clientConn)
	for sid := uint64(1); sid <= 2; sid++ {
		if err := client.Send(&Envelope{Kind: KindOpen, SID: sid, Client: &ClientHello{Version: ProtocolVersion}}); err != nil {
			t.Fatal(err)
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-sibling:
		if !IsTransportError(r.err) {
			t.Fatalf("sibling Recv = %v, want a transport error", r.err)
		}
		if r.took > ioTimeout/4 {
			t.Fatalf("sibling Recv returned after %v, want well before its %v timer", r.took, ioTimeout)
		}
	case <-time.After(2 * ioTimeout):
		t.Fatal("sibling Recv still blocked")
	}
	clientConn.Close()
	<-served
}

// SID returns the session's ID on its connection.
func (s *muxSlot) SID() uint64 { return s.sid }

// TestMuxIdleConnNoticesPeerClose pins what a client pool prunes on: a
// pooled connection with no session open learns promptly that its server
// closed it. Nothing reads for a session here, so the connection's own
// loop must.
func TestMuxIdleConnNoticesPeerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closeServer := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc, err := AcceptMux(conn, 5*time.Second, -1, 0, answerEcho)
		if err != nil || sc == nil {
			t.Errorf("mux handshake: %v", err)
			return
		}
		go func() {
			<-closeServer
			sc.Close()
		}()
		_ = sc.Serve(func(*MuxStream, *ClientHello) {})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc, _, err := OpenMux(conn, CodecBinary, ClientHello{Market: "echo", ListOnly: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if err := mc.Err(); err != nil {
		t.Fatalf("fresh pooled connection: Err() = %v", err)
	}
	close(closeServer)
	<-served
	deadline := time.Now().Add(2 * time.Second)
	for mc.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("idle connection still reports healthy 2s after its server closed it")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !IsTransportError(mc.Err()) {
		t.Fatalf("idle connection died with %v, want a transport error", mc.Err())
	}
}

// holding waits until s holds its connection's read baton.
func holding(t *testing.T, s *muxSlot) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.m.mu.Lock()
		held := s.m.reader == s
		s.m.mu.Unlock()
		if held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never took the read baton", s.sid)
		}
		time.Sleep(time.Millisecond)
	}
}

// echoRound sends one Quote on s and expects its echo.
func echoRound(t *testing.T, s *MuxSession, round int) {
	t.Helper()
	l := link{s}
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: round}}); err != nil {
		t.Fatalf("round %d send: %v", round, err)
	}
	e, err := l.recv(KindAck)
	if err != nil {
		t.Fatalf("round %d recv: %v", round, err)
	}
	if e.Ack.Round != round {
		t.Fatalf("round %d echoed as %d", round, e.Ack.Round)
	}
}

// startMuxMute is startMuxEcho except that a session whose hello names the
// market "mute" is never answered after its Hello: its server end parks in
// Recv, and it reports there on parked.
func startMuxMute(t *testing.T, ioTimeout time.Duration, parked chan<- *MuxStream, parkedErr chan<- error) (*MuxConn, func()) {
	return startMux(t, ioTimeout, func(st *MuxStream, ch *ClientHello) {
		if err := st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: ch.Market}}); err != nil {
			return
		}
		if ch.Market == "mute" {
			parked <- st
			_, err := st.Recv()
			parkedErr <- err
			return
		}
		for {
			e, err := st.Recv()
			if err != nil {
				return
			}
			if err := st.Send(&Envelope{Kind: KindAck, Ack: &Ack{Round: e.Quote.Round}}); err != nil {
				return
			}
		}
	})
}

// TestMuxCancelWhileHoldingBaton: a client session blocked reading the
// connection for itself returns ctx.Err() as soon as its context is
// cancelled, far inside its IO timeout, and leaves the connection to a
// sibling.
func TestMuxCancelWhileHoldingBaton(t *testing.T) {
	const ioTimeout = 5 * time.Second
	parked, parkedErr := make(chan *MuxStream, 1), make(chan error, 1)
	mc, shutdown := startMuxMute(t, ioTimeout, parked, parkedErr)
	defer shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1, _, err := mc.Open(ctx, ClientHello{Market: "mute"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	type result struct {
		err  error
		took time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		_, err := s1.Recv()
		done <- result{err, time.Since(start)}
	}()
	holding(t, &s1.muxSlot)
	cancel()
	r := <-done
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled holder Recv = %v, want context.Canceled", r.err)
	}
	if r.took > ioTimeout/4 {
		t.Fatalf("cancelled holder returned after %v", r.took)
	}
	// The cancel reached the server end too, without touching the conn.
	if err := <-parkedErr; !errors.Is(err, ErrSessionCancelled) {
		t.Fatalf("server end of the cancelled session: %v, want ErrSessionCancelled", err)
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("cancel killed the connection: %v", err)
	}
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		echoRound(t, s2, round)
	}
	s2.CloseClean()
}

// TestMuxCloseEvictsBatonHolder: evicting the server stream that is
// reading for the whole connection unwinds it with ErrSessionEvicted at
// once, while a sibling whose frames it was routing carries on.
func TestMuxCloseEvictsBatonHolder(t *testing.T) {
	const ioTimeout = 5 * time.Second
	parked, parkedErr := make(chan *MuxStream, 1), make(chan error, 1)
	mc, shutdown := startMuxMute(t, ioTimeout, parked, parkedErr)
	defer shutdown()

	victim, _, err := mc.Open(context.Background(), ClientHello{Market: "mute"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	st := <-parked
	holding(t, &st.muxSlot)

	// The sibling's server end waits while the victim reads: every frame
	// of these rounds is routed by the victim's stream.
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 10; round++ {
		echoRound(t, s2, round)
	}
	holding(t, &st.muxSlot)

	start := time.Now()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-parkedErr; !errors.Is(err, ErrSessionEvicted) {
		t.Fatalf("evicted holder Recv = %v, want ErrSessionEvicted", err)
	}
	if took := time.Since(start); took > ioTimeout/4 {
		t.Fatalf("evicted holder unwound after %v", took)
	}
	if _, err := (link{victim}).recv(KindAck); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("client of the evicted stream: %v, want ErrServerBusy", err)
	}
	victim.CloseClean()
	for round := 11; round <= 20; round++ {
		echoRound(t, s2, round)
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("eviction killed the connection: %v", err)
	}
	s2.CloseClean()
}

// TestMuxInterleavedStreamsGetOwnFrames runs many sessions at once on one
// connection, each with several frames in flight each way, so whichever
// session reads routes its siblings' frames. Every session must see
// exactly its own replies, in order.
func TestMuxInterleavedStreamsGetOwnFrames(t *testing.T) {
	const (
		ioTimeout = 5 * time.Second
		streams   = 6
		batches   = 30
		inFlight  = 3
	)
	mc, shutdown := startMuxEcho(t, ioTimeout)
	defer shutdown()
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func(i int) {
			s, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
			if err != nil {
				errs <- err
				return
			}
			defer s.CloseClean()
			l := link{s}
			for b := 0; b < batches; b++ {
				base := i*1_000_000 + b*inFlight
				for k := 0; k < inFlight; k++ {
					if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: base + k}}); err != nil {
						errs <- err
						return
					}
				}
				for k := 0; k < inFlight; k++ {
					e, err := l.recv(KindAck)
					if err != nil {
						errs <- err
						return
					}
					if e.Ack.Round != base+k {
						errs <- fmt.Errorf("session %d got round %d, want %d", i, e.Ack.Round, base+k)
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < streams; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("connection died: %v", err)
	}
}

// TestMuxHolderTimeoutKeepsConnection: a session whose peer never answers
// times out while it reads the connection itself. The receive deadline
// it armed on the connection is its own, not the connection's: Recv
// returns ErrPeerTimeout, and the connection stays healthy for a sibling.
func TestMuxHolderTimeoutKeepsConnection(t *testing.T) {
	const ioTimeout, stall = 5 * time.Second, 150 * time.Millisecond
	parked, parkedErr := make(chan *MuxStream, 1), make(chan error, 1)
	mc, shutdown := startMuxMute(t, ioTimeout, parked, parkedErr)
	defer shutdown()

	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "mute"}, stall)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	start := time.Now()
	_, err = s1.Recv()
	took := time.Since(start)
	if !errors.Is(err, ErrPeerTimeout) {
		t.Fatalf("stalled holder Recv = %v, want ErrPeerTimeout", err)
	}
	if took < stall || took > ioTimeout/4 {
		t.Fatalf("stalled holder returned after %v, want about %v", took, stall)
	}
	if err := mc.Err(); err != nil {
		t.Fatalf("holder timeout killed the connection: %v", err)
	}
	s1.Close()
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		echoRound(t, s2, round)
	}
	s2.CloseClean()
}

// TestFrameRecvResumesAfterDeadline is the premise of reading under a
// receive deadline: a deadline that fires mid-frame consumes nothing, and
// the next Recv returns the whole envelope. Both encodings, for a frame
// that fits the reader's buffer and one that does not.
func TestFrameRecvResumesAfterDeadline(t *testing.T) {
	want := &Envelope{Kind: KindQuote, SID: 7, Quote: &Quote{Round: 3, Rate: 12.5}}
	for _, codec := range framedCodecs {
		for _, size := range []int{16, 4096} {
			t.Run(fmt.Sprintf("%s/buf%d", codec, size), func(t *testing.T) {
				stream := validFrameStream(t, codec, want)
				if size == 16 && len(stream) <= 16+4 {
					t.Fatalf("a %d-byte frame fits a %d-byte buffer", len(stream), size)
				}
				client, server := net.Pipe()
				defer client.Close()
				defer server.Close()
				rest := make(chan struct{})
				go func() {
					half := len(stream) / 2
					if _, err := server.Write(stream[:half]); err != nil {
						return
					}
					<-rest
					_, _ = server.Write(stream[half:])
				}()
				fc, err := newFramedCodec(codec, bufio.NewReaderSize(client, size), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if err := client.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
						t.Fatal(err)
					}
					if _, err := fc.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("half a frame: Recv = %v, want a deadline error", err)
					}
				}
				close(rest)
				if err := client.SetReadDeadline(time.Time{}); err != nil {
					t.Fatal(err)
				}
				got, err := fc.Recv()
				if err != nil {
					t.Fatalf("Recv after the deadline: %v", err)
				}
				if got.SID != want.SID || got.Quote == nil || *got.Quote != *want.Quote {
					t.Fatalf("Recv after the deadline = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// boxedConn builds a client mux end over conn whose codec reads the given
// frame stream, with sessions 1 and 2 registered on it. Nothing runs the
// connection's own loop, so the first Recv takes the read baton.
func boxedConn(t *testing.T, conn net.Conn, stream []byte, ioTimeout time.Duration) (m *MuxConn, s1, s2 *MuxSession) {
	t.Helper()
	fc, err := newFramedCodec(CodecBinary, bufio.NewReader(bytes.NewReader(stream)), conn)
	if err != nil {
		t.Fatal(err)
	}
	m = &MuxConn{}
	m.init(conn, fc, ioTimeout)
	if s1, err = m.register(context.Background(), ioTimeout); err != nil {
		t.Fatal(err)
	}
	if s2, err = m.register(context.Background(), ioTimeout); err != nil {
		t.Fatal(err)
	}
	return m, s1, s2
}

// TestMuxQueuedSameKindFramesStayIntact: a reader routes two Acks for one
// session before that session receives either. The first is decoded into
// the session's Ack box and waits in its inbox; the second finds the box
// busy and decodes onto the heap. Both come out whole, in order.
func TestMuxQueuedSameKindFramesStayIntact(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	stream := validFrameStream(t, CodecBinary,
		&Envelope{Kind: KindAck, SID: 1, Ack: &Ack{Round: 1, DataMSE: 0.5}},
		&Envelope{Kind: KindAck, SID: 1, Ack: &Ack{Round: 2, DataMSE: 0.25}},
		&Envelope{Kind: KindAck, SID: 2, Ack: &Ack{Round: 3}},
	)
	_, s1, s2 := boxedConn(t, client, stream, 0)
	// Session 2 reads the connection and routes session 1's two frames.
	if e, err := s2.Recv(); err != nil || e.Ack.Round != 3 {
		t.Fatalf("session 2 Recv = %+v, %v", e, err)
	}
	first, err := s1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first != &s1.boxes.ack.e {
		t.Fatal("the first queued Ack was not decoded into the session's box")
	}
	if *first.Ack != (Ack{Round: 1, DataMSE: 0.5}) {
		t.Fatalf("first queued Ack = %+v, overwritten by its sibling", *first.Ack)
	}
	second, err := s1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("the second queued Ack reused the busy box")
	}
	if *second.Ack != (Ack{Round: 2, DataMSE: 0.25}) {
		t.Fatalf("second queued Ack = %+v", *second.Ack)
	}
}

// TestMuxHolderDecodesIntoSiblingBoxes: while one session holds the read
// baton (its peer never answers), siblings run echo rounds, and every
// sibling frame is decoded by the holder's goroutine. A lone sibling gets
// every Ack in its own box, which it put back when it called Recv again.
// Then three siblings run at once: one's Recv flushes the others' Quotes,
// so an Ack may find its box still held and decode onto the heap, but
// every Ack must carry its own round. The race detector watches the
// hand-over of the boxes between goroutines.
func TestMuxHolderDecodesIntoSiblingBoxes(t *testing.T) {
	const ioTimeout, rounds = 5 * time.Second, 50
	parked, parkedErr := make(chan *MuxStream, 1), make(chan error, 1)
	mc, shutdown := startMuxMute(t, ioTimeout, parked, parkedErr)
	defer shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	holder, _, err := mc.Open(ctx, ClientHello{Market: "mute"}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	held := make(chan error, 1)
	go func() {
		_, err := holder.Recv()
		held <- err
	}()
	holding(t, &holder.muxSlot)

	echo := func(i int, alone bool) error {
		s, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, ioTimeout)
		if err != nil {
			return err
		}
		defer s.CloseClean()
		l := link{s}
		for r := 1; r <= rounds; r++ {
			round := i*1000 + r
			if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Round: round}}); err != nil {
				return err
			}
			e, err := l.recv(KindAck)
			if err != nil {
				return err
			}
			if alone && e != &s.boxes.ack.e {
				return fmt.Errorf("lone sibling round %d: Ack decoded off its box", r)
			}
			if e.Ack.Round != round {
				return fmt.Errorf("sibling %d got round %d, want %d", i, e.Ack.Round, round)
			}
		}
		return nil
	}
	if err := echo(0, true); err != nil {
		t.Fatal(err)
	}
	const siblings = 3
	errs := make(chan error, siblings)
	for i := 1; i <= siblings; i++ {
		go func(i int) { errs <- echo(i, false) }(i)
	}
	for i := 0; i < siblings; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	holding(t, &holder.muxSlot)
	cancel()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("holder Recv = %v, want context.Canceled", err)
	}
}

// TestMuxCorruptFrameFreesBox: a per-round frame that fails to decode
// after its box was taken hands out no envelope and frees the box, so the
// next frame of that kind decodes into it whole, with nothing left over
// from the torn one.
func TestMuxCorruptFrameFreesBox(t *testing.T) {
	want := &Envelope{Kind: KindQuote, SID: 1, Quote: &Quote{Round: 4, Rate: 1.5, Base: 0.25, High: 3, U: 1000, Target: 0.75}}
	torn := appendEnvelope(nil, &Envelope{Kind: KindQuote, SID: 1, Quote: &Quote{Round: 9, Rate: 9, Base: 9, High: 9, U: 9, Target: 9}})
	torn = torn[:len(torn)-12] // the payload ends inside its fifth float
	stream := binary.BigEndian.AppendUint32(nil, uint32(len(torn)))
	stream = append(stream, torn...)
	stream = append(stream, validFrameStream(t, CodecBinary, want)...)

	var boxes envBoxes
	fc, err := newFramedCodec(CodecBinary, bufio.NewReader(bytes.NewReader(stream)), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fc.boxes = func(uint64) *envBoxes { return &boxes }
	e, err := fc.Recv()
	if e != nil || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn Quote: Recv = %+v, %v; want no envelope and ErrBadFrame", e, err)
	}
	if boxes.quote.busy.Load() {
		t.Fatal("the torn frame left the Quote box busy")
	}
	got, err := fc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != &boxes.quote.e {
		t.Fatal("the next Quote did not decode into the freed box")
	}
	if got.Kind != want.Kind || got.SID != want.SID || *got.Quote != *want.Quote {
		t.Fatalf("Quote after a torn one = %+v %+v, want %+v", got, *got.Quote, *want.Quote)
	}
}

// TestMuxShortTimeoutUnderLaterReadDeadline: a session's Recv leaves its
// long deadline armed on the connection; a sibling with a short IO
// timeout then reads under the baton and must time out on its own
// deadline, not the later one it found armed.
func TestMuxShortTimeoutUnderLaterReadDeadline(t *testing.T) {
	const long, short = 10 * time.Second, 150 * time.Millisecond
	parked, parkedErr := make(chan *MuxStream, 1), make(chan error, 1)
	mc, shutdown := startMuxMute(t, long, parked, parkedErr)
	defer shutdown()

	s1, _, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, long)
	if err != nil {
		t.Fatal(err)
	}
	echoRound(t, s1, 1) // s1 read for itself: its deadline is armed
	mc.mu.Lock()
	armed := mc.rdl
	mc.mu.Unlock()
	if time.Until(armed) < long/2 {
		t.Fatalf("armed read deadline %v ahead, want about %v", time.Until(armed), long)
	}
	s2, _, err := mc.Open(context.Background(), ClientHello{Market: "mute"}, short)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	start := time.Now()
	_, err = s2.Recv()
	took := time.Since(start)
	if !errors.Is(err, ErrPeerTimeout) {
		t.Fatalf("short-timeout holder Recv = %v, want ErrPeerTimeout", err)
	}
	if took < short || took > long/10 {
		t.Fatalf("short-timeout holder returned after %v, want about %v", took, short)
	}
	s2.Close()
	echoRound(t, s1, 2)
	s1.CloseClean()
}

// TestMuxOverflowSendHonorsWriteTimeout: a Send whose frame does not fit
// the buffered writer reaches the connection at once, so it arms the write
// deadline itself; against a peer that never reads it fails within the IO
// timeout instead of blocking.
func TestMuxOverflowSendHonorsWriteTimeout(t *testing.T) {
	const ioTimeout = 100 * time.Millisecond
	client, server := net.Pipe() // unbuffered, and nobody reads server
	defer server.Close()
	m, s1, _ := boxedConn(t, client, nil, ioTimeout)
	defer m.Close()
	big := &Envelope{Kind: KindError, Err: &ErrorMsg{Msg: strings.Repeat("x", connBufSize+1)}}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- s1.Send(big) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("overflowing Send = %v, want ErrPeerTimeout", err)
		}
		if took := time.Since(start); took > 20*ioTimeout {
			t.Fatalf("overflowing Send failed after %v, want about %v", took, ioTimeout)
		}
	case <-time.After(50 * ioTimeout):
		client.Close()
		t.Fatal("overflowing Send still blocked against a peer that never reads")
	}
}

// countingConn counts the writes that reach a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMuxOpenWritesOnce: a dial's opening, the mux preamble and the
// connection-level ClientHello, leaves in one write, in both encodings.
func TestMuxOpenWritesOnce(t *testing.T) {
	for _, codec := range framedCodecs {
		t.Run(codec, func(t *testing.T) {
			client, server := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				defer server.Close()
				sc, err := AcceptMux(server, 5*time.Second, -1, 0, answerEcho)
				if err != nil || sc == nil {
					t.Errorf("mux handshake: %v", err)
					return
				}
				_ = sc.Serve(func(*MuxStream, *ClientHello) {})
			}()
			conn := &countingConn{Conn: client}
			mc, hello, err := OpenMux(conn, codec, ClientHello{Market: "echo", ListOnly: true}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if n := conn.writes.Load(); n != 1 {
				t.Fatalf("OpenMux wrote %d times before its Hello, want 1", n)
			}
			if hello.Market != "echo" {
				t.Fatalf("hello market = %q", hello.Market)
			}
			mc.Close()
			<-served
		})
	}
}

// TestMuxAcceptOutcomes pins the three ways AcceptMux ends: a Hello
// answer opens a connection that serves streams; a refusal or stats answer
// reaches the client as the connection's last word and no connection comes
// back; a torn preamble wraps ErrBadHandshake without reaching answer.
func TestMuxAcceptOutcomes(t *testing.T) {
	stats := &StatsReport{Server: ServerStats{Accepted: 7, Busy: 1}, Epoch: 2}
	openErr := func(want error) func(net.Conn) error {
		return func(c net.Conn) error {
			if _, _, err := OpenMux(c, CodecBinary, ClientHello{Market: "echo", ListOnly: true}, 5*time.Second); !errors.Is(err, want) {
				return fmt.Errorf("OpenMux = %v, want %v", err, want)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name   string
		answer *Envelope // nil: answer must not be called
		conn   bool      // a connection comes back
		err    error     // AcceptMux's error matches it (nil: no error)
		client func(net.Conn) error
	}{
		{"hello", answerEcho(nil), true, nil, func(c net.Conn) error {
			mc, hello, err := OpenMux(c, CodecBinary, ClientHello{Market: "echo", ListOnly: true}, 5*time.Second)
			if err != nil {
				return err
			}
			defer mc.Close()
			if hello.Market != "echo" {
				return fmt.Errorf("hello market = %q", hello.Market)
			}
			s, sh, err := mc.Open(context.Background(), ClientHello{Market: "echo"}, 5*time.Second)
			if err != nil {
				return fmt.Errorf("stream open: %w", err)
			}
			s.CloseClean()
			if sh.Market != "echo" {
				return fmt.Errorf("stream hello market = %q", sh.Market)
			}
			return nil
		}},
		{"refusal", &Envelope{Kind: KindError, Err: &ErrorMsg{Msg: "unknown market"}}, false, nil, openErr(ErrRejected)},
		{"busy", &Envelope{Kind: KindBusy, Err: &ErrorMsg{Msg: "saturated"}}, false, nil, openErr(ErrServerBusy)},
		{"stats", &Envelope{Kind: KindStats, Stats: stats}, false, nil, func(c net.Conn) error {
			got, err := FetchStats(context.Background(), c, 5*time.Second)
			if err == nil && !reflect.DeepEqual(got, stats) {
				err = fmt.Errorf("stats = %+v, want %+v", got, stats)
			}
			return err
		}},
		{"torn preamble", nil, false, ErrBadHandshake, func(c net.Conn) error {
			_, err := c.Write([]byte("VFLM/6 bi"))
			c.Close()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			type outcome struct {
				conn, answered bool
				err            error
			}
			done := make(chan outcome, 1)
			go func() {
				defer server.Close()
				var answered bool
				sc, err := AcceptMux(server, 5*time.Second, -1, 0, func(*ClientHello) *Envelope {
					answered = true
					return tc.answer
				})
				done <- outcome{sc != nil, answered, err}
				if sc != nil {
					_ = sc.Serve(func(st *MuxStream, ch *ClientHello) {
						_ = st.Send(&Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: ch.Market}})
					})
				}
			}()
			if err := tc.client(client); err != nil {
				t.Fatal(err)
			}
			got := <-done
			if got.conn != tc.conn || got.answered != (tc.answer != nil) {
				t.Fatalf("AcceptMux returned a connection: %v (want %v), called answer: %v (want %v)",
					got.conn, tc.conn, got.answered, tc.answer != nil)
			}
			if (tc.err == nil) != (got.err == nil) || !errors.Is(got.err, tc.err) {
				t.Fatalf("AcceptMux error = %v, want %v", got.err, tc.err)
			}
		})
	}
}

// retainingGains is a gain provider that keeps every features slice core
// hands it, and a copy of what each held when handed over.
type retainingGains struct {
	core.GainProvider
	seen, copies [][]int
}

func (g *retainingGains) Gain(features []int) float64 {
	g.seen = append(g.seen, features)
	g.copies = append(g.copies, slices.Clone(features))
	return g.GainProvider.Gain(features)
}

// TestMuxOfferFeaturesOutliveTheirBox: the features of an Offer decoded
// into a session's box reach core as the Hello listing's slice, or a copy
// when the listing does not match, never as the box's own memory, which
// the next round overwrites. A gain provider that keeps every slice finds
// each one unchanged after the session, and the session matches the
// in-process engine.
func TestMuxOfferFeaturesOutliveTheirBox(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 9)
	want, err := core.NewSession(cat, cfg).RunPerfect(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDataServer(cat, cfg.EpsData, nil)
	hello := mustHello(t, srv)
	mc, shutdown := startMux(t, 5*time.Second, func(st *MuxStream, _ *ClientHello) {
		_, _ = srv.ServeCodec(st, hello)
	})
	defer shutdown()
	for _, listed := range []bool{true, false} {
		s, he, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !listed {
			// The Hello is shared with the connection's other sessions:
			// strip the listing from a copy, so every offer's features
			// are copied.
			bare := *he
			bare.Bundles = nil
			he = &bare
		}
		g := &retainingGains{GainProvider: gains}
		res, err := (&TaskClient{Session: cfg, Gains: g}).BargainCodec(context.Background(), s, he)
		s.CloseClean()
		if err != nil {
			t.Fatal(err)
		}
		if len(g.seen) < 2 {
			t.Fatalf("listed=%v: %d rounds realized, want several", listed, len(g.seen))
		}
		for i := range g.seen {
			if !slices.Equal(g.seen[i], g.copies[i]) {
				t.Fatalf("listed=%v: round %d's features now read %v, were %v", listed, i+1, g.seen[i], g.copies[i])
			}
		}
		if res.Outcome != want.Outcome || !reflect.DeepEqual(res.Rounds, want.Rounds) {
			t.Fatalf("listed=%v: wire session differs from the engine's: %v, %d rounds vs %v, %d rounds",
				listed, res.Outcome, len(res.Rounds), want.Outcome, len(want.Rounds))
		}
	}
}

// TestMuxHelloSharedUntilRotation: a connection decodes a repeated session
// Hello once, so two sessions on one MuxConn receive the same *Hello. After
// RotateKey the next session's Hello differs (the new modulus), is decoded
// fresh, and settles under the new key: the client's randomizer pool, built
// for the old key, serves the seals before the rotation and none after, and
// the server opens each closing payment to the client's, quantized.
func TestMuxHelloSharedUntilRotation(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 51)
	srv := NewDataServer(cat, cfg.EpsData, testKeys(t))
	sums := make(chan *SessionSummary, 4)
	mc, shutdown := startMux(t, 5*time.Second, func(st *MuxStream, _ *ClientHello) {
		h, err := srv.Hello()
		if err != nil {
			t.Error(err)
			return
		}
		sum, err := srv.ServeCodec(st, h)
		if err != nil {
			t.Error(err)
		}
		sums <- sum
	})
	defer shutdown()
	bootKey := secure.NewPublicKey(new(big.Int).SetBytes(mustHello(t, srv).PubN))
	noise := secure.NewNoiseSource(bootKey, 8, -1, crand.Reader)
	defer noise.Close()
	if err := noise.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}

	// session plays one session and checks its settlement.
	session := func(name string) *Hello {
		s, h, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&TaskClient{Session: cfg, Gains: gains, Noise: noise}).BargainCodec(context.Background(), s, h)
		s.CloseClean()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := <-sums
		if res.Outcome != core.Success || !sum.Closed || sum.Payment != quantizeGain(res.Final.Payment) {
			t.Fatalf("%s: outcome %v, server closed %v at %v, want the quantized %v",
				name, res.Outcome, sum.Closed, sum.Payment, quantizeGain(res.Final.Payment))
		}
		return h
	}
	first, second := session("first session"), session("second session")
	if first != second {
		t.Fatal("two sessions on one connection decoded the same Hello twice")
	}
	if pooled := noise.Stats().Pooled; pooled != 2 {
		t.Fatalf("%d seals drew from the pool before the rotation, want 2", pooled)
	}
	pubN, err := srv.RotateKey()
	if err != nil {
		t.Fatal(err)
	}
	rotated := session("session after the rotation")
	if rotated == first || !bytes.Equal(rotated.PubN, pubN) || bytes.Equal(first.PubN, pubN) {
		t.Fatal("the session after the rotation did not get a fresh Hello announcing the new key")
	}
	if pooled := noise.Stats().Pooled; pooled != 2 {
		t.Fatalf("a seal under the rotated key drew from the old key's pool (%d draws)", pooled)
	}
}
