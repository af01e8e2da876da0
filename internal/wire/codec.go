package wire

import (
	"bufio"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"time"
)

// Codec names accepted in the handshake preamble. The serial (v2–v6
// one-session) endpoints speak the two stream codecs below; the v6 mux
// speaks CodecBinary (see frame.go) and framed gob.
const (
	CodecGob  = "gob"  // Go-native stream codec
	CodecJSON = "json" // newline-delimited JSON, serial endpoints only
)

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

// Codec frames protocol envelopes on a connection. Implementations are not
// safe for concurrent use; the protocol is strictly half-duplex per
// session.
type Codec interface {
	// Name returns the handshake name of the codec ("bin", "gob", "json").
	Name() string
	Send(e *Envelope) error
	Recv() (*Envelope, error)
}

// NewCodec builds the named codec over a reader/writer pair (usually the
// two ends of one net.Conn, with the reader possibly buffered by the
// handshake).
func NewCodec(name string, r io.Reader, w io.Writer) (Codec, error) {
	switch name {
	case CodecGob:
		return &gobCodec{enc: gob.NewEncoder(w), dec: gob.NewDecoder(r)}, nil
	case CodecJSON:
		return &jsonCodec{enc: json.NewEncoder(w), dec: json.NewDecoder(r)}, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (have %s)", name, strings.Join(CodecNames(), ", "))
	}
}

// CodecNames lists the codec names the serial endpoints accept.
func CodecNames() []string { return []string{CodecGob, CodecJSON} }

type gobCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

func (c *gobCodec) Name() string { return CodecGob }

func (c *gobCodec) Send(e *Envelope) error { return c.enc.Encode(e) }

func (c *gobCodec) Recv() (*Envelope, error) {
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

type jsonCodec struct {
	enc *json.Encoder
	dec *json.Decoder
}

func (c *jsonCodec) Name() string { return CodecJSON }

func (c *jsonCodec) Send(e *Envelope) error { return c.enc.Encode(e) }

func (c *jsonCodec) Recv() (*Envelope, error) {
	var e Envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// link wraps a Codec with the session-level framing rules: kind checking,
// peer-error unwrapping, and timeout classification.
type link struct {
	c Codec
}

// newCodec builds the legacy v1 link over a connection: gob framing, no
// handshake.
func newCodec(conn net.Conn) link {
	c, _ := NewCodec(CodecGob, conn, conn)
	return link{c: c}
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

// deadlineConn arms a read/write deadline before every conn operation, so
// a stalled or vanished peer surfaces as a net.Error timeout instead of a
// hung session.
type deadlineConn struct {
	net.Conn
	d time.Duration
}

func (c deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.d)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.d)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// WithIOTimeout wraps the connection so every read and write must make
// progress within d, surfacing stalls as net.Error timeouts (classified as
// ErrPeerTimeout by the protocol endpoints). d <= 0 returns the connection
// unchanged.
func WithIOTimeout(conn net.Conn, d time.Duration) net.Conn {
	if d <= 0 {
		return conn
	}
	return deadlineConn{Conn: conn, d: d}
}

// handshakeMagic opens every v6 connection, followed by the codec name, an
// optional "mux" token (the v6 multiplexed-framing upgrade), and a newline.
// Servers also accept the v5, v4, v3 and v2 spellings from older clients.
const (
	handshakeMagic   = "VFLM/6"
	handshakeMagicV5 = "VFLM/5"
	handshakeMagicV4 = "VFLM/4"
	handshakeMagicV3 = "VFLM/3"
	handshakeMagicV2 = "VFLM/2"
)

// muxToken is the third preamble field that upgrades a v6 connection to
// multiplexed length-prefixed framing. It lives in the preamble — not in
// the ClientHello — because the serial stream decoders read ahead of the
// envelope they decode, so the framing discriminator must be consumed
// before any codec touches the stream.
const muxToken = "mux"

// maxHandshakeLen bounds the preamble line so garbage connections fail
// fast.
const maxHandshakeLen = 64

// WriteHandshake sends the v6 serial preamble naming the codec the client
// will speak.
func WriteHandshake(w io.Writer, codecName string) error {
	if _, err := fmt.Fprintf(w, "%s %s\n", handshakeMagic, codecName); err != nil {
		return classify(fmt.Errorf("wire: handshake: %w", err))
	}
	return nil
}

// WriteMuxHandshake sends the v6 multiplexed preamble: after it, every
// envelope on the connection travels in a length-prefixed frame and carries
// a session ID.
func WriteMuxHandshake(w io.Writer, codecName string) error {
	if _, err := fmt.Fprintf(w, "%s %s %s\n", handshakeMagic, codecName, muxToken); err != nil {
		return classify(fmt.Errorf("wire: handshake: %w", err))
	}
	return nil
}

// ReadHandshake consumes the v2–v6 serial preamble and returns the codec
// name the client announced. Multiplexed preambles are rejected; endpoints
// that accept both call AcceptHandshakeMux instead.
func ReadHandshake(br *bufio.Reader) (codecName string, err error) {
	name, mux, err := readHandshake(br)
	if err != nil {
		return "", err
	}
	if mux {
		return "", fmt.Errorf("wire: handshake: mux preamble on a serial endpoint")
	}
	return name, nil
}

// readHandshake consumes the v2–v6 preamble: the codec name plus whether
// the client asked for the v6 multiplexed framing upgrade.
func readHandshake(br *bufio.Reader) (codecName string, mux bool, err error) {
	line, err := readLine(br, maxHandshakeLen)
	if err != nil {
		return "", false, classify(fmt.Errorf("wire: handshake: %w", err))
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 ||
		(fields[0] != handshakeMagic && fields[0] != handshakeMagicV5 &&
			fields[0] != handshakeMagicV4 && fields[0] != handshakeMagicV3 &&
			fields[0] != handshakeMagicV2) {
		return "", false, fmt.Errorf("wire: handshake: bad preamble %q", line)
	}
	if len(fields) == 3 {
		// Only the current version may ask for the mux upgrade.
		if fields[2] != muxToken || fields[0] != handshakeMagic {
			return "", false, fmt.Errorf("wire: handshake: bad preamble %q", line)
		}
		return fields[1], true, nil
	}
	return fields[1], false, nil
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

// AcceptHandshake performs the server side of the v2 opening on a fresh
// connection: read the preamble, build the codec, and receive the
// ClientHello. The returned codec must be used for everything that
// follows (its reader owns the connection's buffered bytes). Multiplexed
// preambles are rejected; frontends that accept both call
// AcceptHandshakeMux.
func AcceptHandshake(conn net.Conn) (Codec, *ClientHello, error) {
	br := bufio.NewReader(conn)
	name, err := ReadHandshake(br)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewCodec(name, br, conn)
	if err != nil {
		return nil, nil, err
	}
	e, err := link{c}.recv(KindClientHello)
	if err != nil {
		return nil, nil, err
	}
	return c, e.Client, nil
}

// switchReader lets the accept path re-point the stream under an already
// buffered bufio.Reader: the preamble is read through the per-op deadline
// wrapper, and if the client asked for mux framing the underlying reader is
// swapped to the raw connection (the mux reader manages its own deadlines;
// per-read deadlines would kill idle pooled connections).
type switchReader struct{ r io.Reader }

func (s *switchReader) Read(p []byte) (int, error) { return s.r.Read(p) }

// AcceptHandshakeMux performs the server side of the opening on a fresh
// connection, accepting both the serial (v2–v6) and the multiplexed (v6)
// preamble. For a serial client it behaves exactly like AcceptHandshake
// over a per-op deadline wrapper. For a mux client it returns a framed
// codec over the raw connection with mux=true; the caller hands the
// connection to ServeMuxConn, which owns deadlines from then on. The hello
// read itself is bounded by ioTimeout in both modes.
func AcceptHandshakeMux(conn net.Conn, ioTimeout time.Duration) (Codec, *ClientHello, bool, error) {
	tconn := WithIOTimeout(conn, ioTimeout)
	sr := &switchReader{r: tconn}
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(sr)
	name, mux, err := readHandshake(br)
	if err != nil {
		return nil, nil, false, err
	}
	if !mux {
		c, err := NewCodec(name, br, tconn)
		if err != nil {
			return nil, nil, false, err
		}
		e, err := link{c}.recv(KindClientHello)
		if err != nil {
			return nil, nil, false, err
		}
		return c, e.Client, false, nil
	}
	sr.r = conn
	if ioTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
			return nil, nil, false, err
		}
	}
	fc, err := newFramedCodec(name, br, conn)
	if err != nil {
		return nil, nil, false, err
	}
	e, err := link{fc}.recv(KindClientHello)
	if err != nil {
		return nil, nil, false, err
	}
	if ioTimeout > 0 {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return nil, nil, false, err
		}
	}
	return fc, e.Client, true, nil
}

// ClientHandshake performs the client side of the v3 opening: preamble,
// the given ClientHello (its Version is forced to ProtocolVersion), and
// the server's Hello (or its rejection, surfaced as an error).
func ClientHandshake(conn net.Conn, codecName string, ch ClientHello) (Codec, *Hello, error) {
	if err := WriteHandshake(conn, codecName); err != nil {
		return nil, nil, err
	}
	c, err := NewCodec(codecName, conn, conn)
	if err != nil {
		return nil, nil, err
	}
	l := link{c}
	ch.Version = ProtocolVersion
	if err := l.send(&Envelope{Kind: KindClientHello, Client: &ch}); err != nil {
		return nil, nil, err
	}
	e, err := l.recv(KindHello)
	if err != nil {
		return nil, nil, err
	}
	return c, e.Hello, nil
}

// flusher is satisfied by codecs that buffer writes (the v6 framed codec).
// Serial codecs write through and need no flushing.
type flusher interface{ Flush() error }

// Flush pushes any buffered frames of c to the connection. A no-op for
// serial codecs.
func Flush(c Codec) error {
	if f, ok := c.(flusher); ok {
		return f.Flush()
	}
	return nil
}

// SendError sends a rejection envelope (best effort; the caller closes the
// connection or session afterwards).
func SendError(c Codec, format string, args ...any) {
	_ = c.Send(&Envelope{Kind: KindError, Err: &ErrorMsg{Msg: fmt.Sprintf(format, args...)}})
	_ = Flush(c)
}

// SendBusy sends the v4 admission-control rejection: the server's session
// pool is saturated and the connection closes without a session. Clients
// see ErrServerBusy and may retry with backoff. Best effort, like
// SendError.
func SendBusy(c Codec, format string, args ...any) {
	_ = c.Send(&Envelope{Kind: KindBusy, Err: &ErrorMsg{Msg: fmt.Sprintf(format, args...)}})
	_ = Flush(c)
}

// SendRedirect sends the v5 shard-routing answer in place of the Hello:
// the server does not own the market, and the client should redial Addr.
// The connection (or, on a mux conn, the session) closes after it. Best
// effort, like SendError.
func SendRedirect(c Codec, r *Redirect) {
	_ = c.Send(&Envelope{Kind: KindRedirect, Redirect: r})
	_ = Flush(c)
}
