package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"time"
)

// CodecGob names framed gob in the mux preamble: one persistent gob
// encoder and decoder per connection, kept for OpenMux callers that name
// it. CodecBinary (frame.go) is the wire's own encoding.
const CodecGob = "gob"

// ErrPeerTimeout marks a session that died because the peer stalled past
// the connection's IO deadline: errors.Is(err, ErrPeerTimeout) on any
// session error distinguishes a vanished or wedged peer from a protocol
// violation.
var ErrPeerTimeout = errors.New("wire: peer timed out")

// ErrRejected marks a session the peer refused with an error envelope
// (unknown market, invalid parameters, no resumable checkpoint). Retrying
// the same session will fail the same way.
var ErrRejected = errors.New("wire: peer rejected the session")

// ErrServerBusy marks a connection the server refused with a KindBusy
// envelope: its session pool is saturated. Unlike ErrRejected, retrying
// after a backoff is reasonable.
var ErrServerBusy = errors.New("wire: server busy")

// ErrRedirected marks a connection the server answered with a KindRedirect
// envelope: it does not own the requested market and named the shard that
// does. Match the concrete *RedirectError with errors.As to learn the
// owner's address; errors.Is(err, ErrRedirected) also reports true.
var ErrRedirected = errors.New("wire: session redirected")

// RedirectError is the typed surface of a KindRedirect answer: the market
// asked for, the owning shard's address, and the shard-map epoch the
// answer was derived from. It matches ErrRedirected under errors.Is.
type RedirectError struct {
	Market string
	Addr   string
	Epoch  uint64
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("wire: market %q is served at %s (shard-map epoch %d)", e.Market, e.Addr, e.Epoch)
}

// Is matches the ErrRedirected sentinel, so callers without the concrete
// type can still classify the failure.
func (e *RedirectError) Is(target error) bool { return target == ErrRedirected }

// Codec frames protocol envelopes on one session. Sends may buffer; Flush
// pushes them to the peer, and Recv flushes before it blocks.
// Implementations are not safe for concurrent use; the protocol is strictly
// half-duplex per session.
type Codec interface {
	// Name returns the preamble name of the encoding ("bin", "gob").
	Name() string
	Send(e *Envelope) error
	Flush() error
	Recv() (*Envelope, error)
}

// link wraps a Codec with the session-level framing rules: kind checking,
// peer-error unwrapping, and timeout classification.
type link struct {
	c Codec
}

func (l link) send(e *Envelope) error {
	if err := l.c.Send(e); err != nil {
		return classify(fmt.Errorf("wire: send %v: %w", e.Kind, err))
	}
	return nil
}

func (l link) recv(want Kind) (*Envelope, error) { return l.recvEither(want, want) }

// recvEither receives the next envelope and checks it is of kind want or
// alt. A KindError envelope surfaces as an error regardless. The wanted
// kinds are scalars rather than a slice so that the per-round receive
// does not allocate for its own error message.
func (l link) recvEither(want, alt Kind) (*Envelope, error) {
	e, err := l.c.Recv()
	if err != nil {
		return nil, classify(fmt.Errorf("wire: recv: %w", err))
	}
	if e.Kind == KindError || e.Kind == KindBusy {
		msg := "unspecified"
		if e.Err != nil {
			msg = e.Err.Msg
		}
		if e.Kind == KindBusy {
			return nil, fmt.Errorf("%w: %s", ErrServerBusy, msg)
		}
		return nil, fmt.Errorf("%w: %s", ErrRejected, msg)
	}
	if e.Kind == KindRedirect {
		if e.Redirect == nil {
			return nil, fmt.Errorf("wire: redirect envelope without payload")
		}
		return nil, &RedirectError{Market: e.Redirect.Market, Addr: e.Redirect.Addr, Epoch: e.Redirect.Epoch}
	}
	if e.Kind == want || e.Kind == alt {
		if payloadMissing(e) {
			return nil, fmt.Errorf("wire: %v envelope without payload", e.Kind)
		}
		return e, nil
	}
	if want == alt {
		return nil, fmt.Errorf("wire: got message kind %v, want %v", e.Kind, want)
	}
	return nil, fmt.Errorf("wire: got message kind %v, want %v or %v", e.Kind, want, alt)
}

// payloadMissing reports a well-framed envelope whose kind-matching payload
// pointer is nil — a malformed peer that must fail the session cleanly
// rather than panic it on dereference.
func payloadMissing(e *Envelope) bool {
	switch e.Kind {
	case KindHello:
		return e.Hello == nil
	case KindQuote:
		return e.Quote == nil
	case KindOffer:
		return e.Offer == nil
	case KindSettle:
		return e.Settle == nil
	case KindClientHello:
		return e.Client == nil
	case KindAck:
		return e.Ack == nil
	case KindStats:
		return e.Stats == nil
	case KindOpen:
		return e.Client == nil
	default:
		return false
	}
}

// classify tags IO timeouts with ErrPeerTimeout so callers can tell a
// stalled peer from a protocol violation.
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrPeerTimeout, err)
	}
	return err
}

// IsTransportError reports whether err is a transport-layer failure — the
// peer vanished, stalled, reset, or walked away — as opposed to a protocol
// violation (malformed envelopes, bad frames, decode garbage). The server
// uses the distinction to count chaos-class session deaths as Dropped
// rather than Failed: a client that crashes mid-session did nothing wrong
// at the protocol level, and a fleet assertion of Failed==0 should survive
// any amount of connection churn.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrPeerTimeout),
		errors.Is(err, ErrMuxClosed),
		errors.Is(err, ErrSessionCancelled),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// ErrBadHandshake tags every failure of a connection's opening, as the
// accepting side sees it: a preamble other than "VFLM/6 <bin|gob> mux", or a
// first frame that is not a well-formed ClientHello. The underlying cause
// (a bad frame, a timeout, a torn stream) stays matchable with errors.Is.
var ErrBadHandshake = errors.New("wire: bad handshake")

// handshakeMagic opens every connection, followed by the envelope encoding
// (CodecBinary or CodecGob), the "mux" token, and a newline. It is the only
// preamble a server accepts: every connection is a multiplexed one.
const (
	handshakeMagic = "VFLM/6"
	muxToken       = "mux"
)

// maxHandshakeLen bounds the preamble line so garbage connections fail
// fast.
const maxHandshakeLen = 64

// writeMuxHandshake writes the preamble: after it, every envelope on the
// connection travels in a length-prefixed frame and carries a session ID.
func writeMuxHandshake(w io.Writer, codecName string) error {
	if _, err := fmt.Fprintf(w, "%s %s %s\n", handshakeMagic, codecName, muxToken); err != nil {
		return classify(fmt.Errorf("wire: handshake: %w", err))
	}
	return nil
}

// readHandshake consumes the preamble and returns the envelope encoding it
// names. It is the one place that knows which framing and protocol version
// a connection speaks, and it has one answer.
func readHandshake(br *bufio.Reader) (codecName string, err error) {
	line, err := readLine(br, maxHandshakeLen)
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrBadHandshake, classify(err))
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != handshakeMagic || (f[1] != CodecBinary && f[1] != CodecGob) || f[2] != muxToken {
		return "", fmt.Errorf("%w: preamble %q", ErrBadHandshake, line)
	}
	return f[1], nil
}

func readLine(br *bufio.Reader, max int) (string, error) {
	var b strings.Builder
	for b.Len() <= max {
		c, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if c == '\n' {
			return b.String(), nil
		}
		b.WriteByte(c)
	}
	return "", fmt.Errorf("preamble exceeds %d bytes", max)
}

// acceptHello reads a connection's opening from br — the preamble, then the
// first frame, which must be a ClientHello — and returns the framed codec
// the rest of the connection speaks. Every error wraps ErrBadHandshake.
func acceptHello(br *bufio.Reader, w io.Writer) (*framedCodec, *ClientHello, error) {
	name, err := readHandshake(br)
	if err != nil {
		return nil, nil, err
	}
	fc, err := newFramedCodec(name, br, w)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	e, err := link{fc}.recv(KindClientHello)
	if err != nil {
		return fc, nil, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	return fc, e.Client, nil
}

// AcceptHandshakeMux performs the server side of a fresh connection's
// opening: the preamble and the connection-level ClientHello, both read
// under one ioTimeout deadline. It returns the framed codec the caller
// hands to NewMuxServerConn, whose Serve owns deadlines from then on. On
// error the pooled buffers are already released and the caller closes the
// connection; a failed exchange wraps ErrBadHandshake.
//
// Ownership of the returned codec follows one rule: the accepting side
// calls Release on it unless MuxServerConn.Serve took it over, which
// releases on its own.
func AcceptHandshakeMux(conn net.Conn, ioTimeout time.Duration) (Codec, *ClientHello, error) {
	if ioTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
			return nil, nil, err
		}
	}
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	fc, ch, err := acceptHello(br, conn)
	if err == nil && ioTimeout > 0 {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		if fc != nil {
			fc.release()
		} else {
			putReader(br)
		}
		return nil, nil, err
	}
	return fc, ch, nil
}

// Release returns the pooled buffers of a codec AcceptHandshakeMux returned
// when the connection ends before MuxServerConn.Serve took the codec over:
// a stats answer, a refusal, a failed Hello. Serve releases on its own, so
// a codec it ran must not be released again.
func Release(c Codec) {
	if fc, ok := c.(*framedCodec); ok {
		fc.release()
	}
}
