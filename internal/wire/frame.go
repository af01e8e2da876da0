package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The v6 fast wire replaces one-decoder-per-connection stream codecs with
// length-prefixed frames: every envelope travels as a 4-byte big-endian
// length followed by that many payload bytes in the negotiated encoding.
// The frame boundary is what makes multiplexing safe — the demux loop can
// hand whole envelopes to per-session inboxes without any session's decoder
// reading past its own bytes.
//
// Two encodings ride the frames. CodecBinary is the wire's own: the
// hand-rolled layout of envelope.go, encoded by appending into one reused
// buffer and decoded in place from the buffered reader, with no per-conn
// codec state at all. Framed gob stays for mux callers that name it; it
// keeps one persistent encoder and decoder per connection, so its type
// dictionary crosses once per connection rather than per session, but that
// once still costs hundreds of allocations on every fresh connection.

// CodecBinary names the binary envelope encoding in the mux preamble. It is
// the encoding vflmarket clients speak; the serial endpoints do not offer it.
const CodecBinary = "bin"

// maxFrameSize bounds a single frame so a corrupt or hostile length prefix
// fails the connection instead of provoking a giant allocation. Listings
// are the largest envelopes and sit far below this.
const maxFrameSize = 16 << 20

// ErrBadFrame tags frame-layer violations — a zero or oversized length
// prefix, or a binary envelope that does not decode (*EnvelopeError).
// Fuzzing and chaos tests match on it to prove a corrupted stream fails the
// connection with a typed error rather than a panic or a giant allocation.
var ErrBadFrame = errors.New("wire: invalid frame")

// connBufSize sizes the pooled bufio readers and writers on both ends of a
// framed connection.
const connBufSize = 32 << 10

// Pooled bufio state for framed connections. Connections are long-lived
// (clients pool them warm), so the win is mostly on churny accept paths,
// but recycling keeps even those allocation-flat.
var (
	frameReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	frameWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, connBufSize) }}
)

// envelopePool recycles envelopes on the send paths of the framed wire: the
// encoder does not retain its argument, so an envelope can go back to the
// pool as soon as Send returns.
var envelopePool = sync.Pool{New: func() any { return new(Envelope) }}

// getEnvelope returns a zeroed envelope from the pool.
func getEnvelope() *Envelope { return envelopePool.Get().(*Envelope) }

// putEnvelope zeroes and recycles an envelope obtained from getEnvelope.
// Callers must not retain any pointer reachable from it afterwards.
func putEnvelope(e *Envelope) {
	*e = Envelope{}
	envelopePool.Put(e)
}

// readFrameHeader consumes one 4-byte length prefix and validates it. A
// stream that ends inside the prefix is io.ErrUnexpectedEOF; one that ends
// cleanly before it is io.EOF.
func readFrameHeader(br *bufio.Reader) (int, error) {
	h, err := br.Peek(4)
	if err != nil {
		return 0, tornAt(len(h), err)
	}
	n := binary.BigEndian.Uint32(h)
	_, _ = br.Discard(4)
	if n == 0 || n > maxFrameSize {
		return 0, fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
	}
	return int(n), nil
}

// tornAt turns an EOF after got > 0 bytes of a unit into the unexpected EOF
// of a torn frame.
func tornAt(got int, err error) error {
	if got > 0 && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameReader presents the payload bytes of successive frames as one
// continuous logical stream for framed gob: Read and ReadByte serve the
// current frame and transparently open the next when it is exhausted.
// Implementing io.ByteReader matters — without it gob wraps the reader in
// its own bufio.Reader, which reads ahead past frame boundaries it knows
// nothing about.
type frameReader struct {
	br *bufio.Reader
	n  int // payload bytes remaining in the current frame
}

func (f *frameReader) next() (err error) {
	f.n, err = readFrameHeader(f.br)
	return err
}

func (f *frameReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for f.n == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.br.Read(p)
	f.n -= n
	return n, err
}

func (f *frameReader) ReadByte() (byte, error) {
	for f.n == 0 {
		if err := f.next(); err != nil {
			return 0, err
		}
	}
	c, err := f.br.ReadByte()
	if err == nil {
		f.n--
	}
	return c, err
}

// gobFrames is the per-connection state of framed gob.
type gobFrames struct {
	buf bytes.Buffer
	enc *gob.Encoder
	fr  frameReader
	dec *gob.Decoder
}

// framedCodec is the v6 wire format: envelopes in length-prefixed frames
// over a buffered connection. Send appends length+payload to the buffered
// writer WITHOUT flushing — callers batch envelopes and flush before
// blocking on a read (see Flush), which is what coalesces a pipelined
// Settle+Quote into a single segment. Not safe for concurrent use; the mux
// layer serializes access.
type framedCodec struct {
	name string
	bw   *bufio.Writer
	br   *bufio.Reader

	// buf is the reused send scratch: the length prefix, followed by the
	// envelope for CodecBinary. big receives the rare binary frame larger
	// than br's buffer.
	buf []byte
	big bytes.Buffer

	gob *gobFrames // non-nil only for CodecGob
}

// newFramedCodec builds the framed codec over a connection whose preamble
// has already been consumed from br (which must wrap the same stream w
// writes to).
func newFramedCodec(name string, br *bufio.Reader, w io.Writer) (*framedCodec, error) {
	f := &framedCodec{name: name, br: br}
	switch name {
	case CodecBinary:
	case CodecGob:
		g := &gobFrames{fr: frameReader{br: br}}
		g.enc = gob.NewEncoder(&g.buf)
		g.dec = gob.NewDecoder(&g.fr)
		f.gob = g
	default:
		return nil, fmt.Errorf("wire: unknown mux codec %q (have %s, %s)", name, CodecBinary, CodecGob)
	}
	f.bw = frameWriterPool.Get().(*bufio.Writer)
	f.bw.Reset(w)
	return f, nil
}

func (f *framedCodec) Name() string { return f.name }

func (f *framedCodec) Send(e *Envelope) error {
	if f.gob != nil {
		return f.sendGob(e)
	}
	f.buf = appendEnvelope(append(f.buf[:0], 0, 0, 0, 0), e)
	n := len(f.buf) - 4
	if n > maxFrameSize {
		return fmt.Errorf("%w: %v envelope of %d bytes exceeds the frame limit", ErrBadFrame, e.Kind, n)
	}
	binary.BigEndian.PutUint32(f.buf, uint32(n))
	_, err := f.bw.Write(f.buf)
	return err
}

func (f *framedCodec) sendGob(e *Envelope) error {
	g := f.gob
	g.buf.Reset()
	if err := g.enc.Encode(e); err != nil {
		// A failed encode may leave half a payload in the scratch buffer but
		// nothing on the wire; the connection is still framed correctly. gob
		// stream state could be inconsistent though, so callers treat this
		// as fatal for the connection.
		return err
	}
	f.buf = binary.BigEndian.AppendUint32(f.buf[:0], uint32(g.buf.Len()))
	if _, err := f.bw.Write(f.buf); err != nil {
		return err
	}
	_, err := f.bw.Write(g.buf.Bytes())
	return err
}

// Recv reads the next envelope. A binary frame is decoded in place from the
// reader's buffer (Peek, decode, Discard); only a frame larger than the
// buffer is copied out first.
func (f *framedCodec) Recv() (*Envelope, error) {
	if f.gob != nil {
		var e Envelope
		if err := f.gob.dec.Decode(&e); err != nil {
			return nil, err
		}
		return &e, nil
	}
	n, err := readFrameHeader(f.br)
	if err != nil {
		return nil, err
	}
	if n > f.br.Size() {
		f.big.Reset()
		if _, err := io.CopyN(&f.big, f.br, int64(n)); err != nil {
			return nil, tornAt(1, err)
		}
		return decodeEnvelope(f.big.Bytes())
	}
	p, err := f.br.Peek(n)
	if err != nil {
		return nil, tornAt(1, err)
	}
	e, err := decodeEnvelope(p)
	_, _ = f.br.Discard(n)
	return e, err
}

// Flush pushes buffered frames to the connection. The framed wire's flush
// discipline is "flush before blocking on a read": it is always correct
// (no envelope a peer is waiting for can sit in the buffer while we wait
// for the peer), and it is what lets consecutive sends coalesce into one
// write when the next inbound envelope has already arrived.
func (f *framedCodec) Flush() error { return f.bw.Flush() }

// eofReader parks recycled bufio.Readers on a harmless source.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// release returns the pooled bufio state. Call once, after the connection
// is done; the codec must not be used afterwards.
func (f *framedCodec) release() {
	if f.bw != nil {
		f.bw.Reset(io.Discard)
		frameWriterPool.Put(f.bw)
		f.bw = nil
	}
	if f.br != nil {
		f.br.Reset(eofReader{})
		frameReaderPool.Put(f.br)
		f.br = nil
	}
}
