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

// The wire frames every envelope: a 4-byte big-endian length followed by
// that many payload bytes in the negotiated encoding. The frame boundary is
// what makes multiplexing safe: whichever session holds the mux's read
// baton takes whole envelopes off the connection, keeps its own and routes
// the rest to their sessions, and no decoder reads past its frame. A frame
// is buffered whole before any of it is consumed, so a read deadline that
// interrupts the reader loses nothing.
//
// Two encodings ride the frames. CodecBinary is the wire's own: the
// hand-rolled layout of envelope.go, encoded by appending into one reused
// buffer and decoded in place from the buffered reader, with no per-conn
// codec state at all. Framed gob stays for mux callers that name it; it
// keeps one persistent encoder and decoder per connection, so its type
// dictionary crosses once per connection rather than per session, but that
// once still costs hundreds of allocations on every fresh connection.

// CodecBinary names the binary envelope encoding in the mux preamble. It is
// the encoding vflmarket clients speak.
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
	br  *bufio.Reader
	big *bytes.Buffer // the payload of a frame too large for br, read out whole
	n   int           // payload bytes remaining in the current frame
}

func (f *frameReader) next() (err error) {
	f.n, err = readFrameHeader(f.br)
	return err
}

func (f *frameReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if f.n == 0 && f.big.Len() > 0 {
		return f.big.Read(p)
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
	if f.n == 0 && f.big.Len() > 0 {
		return f.big.ReadByte()
	}
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

// framedCodec is the wire format: envelopes in length-prefixed frames
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
	// envelope for CodecBinary. big receives the payload of the rare frame
	// larger than br's buffer; spill counts its bytes still to read.
	buf   []byte
	big   bytes.Buffer
	spill int

	gob *gobFrames // non-nil only for CodecGob

	// boxes, when non-nil, returns the receive boxes of the session a
	// binary frame names (see decodeEnvelope); a mux end sets it.
	boxes func(sid uint64) *envBoxes
}

// newFramedCodec builds the framed codec over a connection whose preamble
// has already been consumed from br (which must wrap the same stream w
// writes to).
func newFramedCodec(name string, br *bufio.Reader, w io.Writer) (*framedCodec, error) {
	f := &framedCodec{name: name, br: br}
	switch name {
	case CodecBinary:
	case CodecGob:
		g := &gobFrames{fr: frameReader{br: br, big: &f.big}}
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
	if err := f.frame(e); err != nil {
		return err
	}
	return f.push()
}

// frame encodes e's whole frame, length prefix and payload, into the send
// scratch; push then writes it to the buffered writer. Between the two,
// framed says how many bytes the push writes.
func (f *framedCodec) frame(e *Envelope) error {
	if f.gob != nil {
		g := f.gob
		g.buf.Reset()
		if err := g.enc.Encode(e); err != nil {
			// A failed encode may leave half a payload in the scratch buffer
			// but nothing on the wire; the connection is still framed
			// correctly. gob stream state could be inconsistent though, so
			// callers treat this as fatal for the connection.
			return err
		}
		f.buf = binary.BigEndian.AppendUint32(f.buf[:0], uint32(g.buf.Len()))
		return nil
	}
	f.buf = appendEnvelope(append(f.buf[:0], 0, 0, 0, 0), e)
	n := len(f.buf) - 4
	if n > maxFrameSize {
		return fmt.Errorf("%w: %v envelope of %d bytes exceeds the frame limit", ErrBadFrame, e.Kind, n)
	}
	binary.BigEndian.PutUint32(f.buf, uint32(n))
	return nil
}

func (f *framedCodec) framed() int {
	if f.gob != nil {
		return len(f.buf) + f.gob.buf.Len()
	}
	return len(f.buf)
}

func (f *framedCodec) push() error {
	if _, err := f.bw.Write(f.buf); err != nil || f.gob == nil {
		return err
	}
	_, err := f.bw.Write(f.gob.buf.Bytes())
	return err
}

// Recv reads the next envelope. The whole frame is buffered first (see
// fill), so an error before it decodes — a read deadline included —
// consumes nothing, and the next Recv resumes the same frame. A binary
// frame is then decoded in place from the reader's buffer; one larger than
// the buffer is decoded from its copy.
func (f *framedCodec) Recv() (*Envelope, error) {
	p, err := f.fill()
	if err != nil {
		return nil, err
	}
	if f.gob != nil {
		// The frame is one Encode's whole output, so Decode reads it and
		// nothing more; an error here is the payload's, not the stream's.
		var e Envelope
		if err := f.gob.dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("%w: gob: %v", ErrBadFrame, err)
		}
		return &e, nil
	}
	e, err := decodeEnvelope(p, f.boxes)
	if f.big.Len() > 0 {
		f.big.Reset()
	} else {
		_, _ = f.br.Discard(4 + len(p))
	}
	return e, err
}

// fill makes the next whole frame readable without blocking and returns
// its payload. A frame that fits br's buffer stays there behind its length
// prefix; a larger one is read out to big. On error the stream is left
// where a retry resumes it.
func (f *framedCodec) fill() ([]byte, error) {
	if f.spill == 0 && f.big.Len() == 0 {
		h, err := f.br.Peek(4)
		if err != nil {
			return nil, tornAt(len(h), err)
		}
		n := int(binary.BigEndian.Uint32(h))
		if n == 0 || n > maxFrameSize {
			return nil, fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
		}
		if 4+n <= f.br.Size() {
			p, err := f.br.Peek(4 + n)
			if err != nil {
				return nil, tornAt(1, err)
			}
			return p[4:], nil
		}
		_, _ = f.br.Discard(4)
		f.spill = n
	}
	for f.spill > 0 {
		n, err := io.CopyN(&f.big, f.br, int64(f.spill))
		f.spill -= int(n)
		if err != nil {
			return nil, tornAt(1, err)
		}
	}
	return f.big.Bytes(), nil
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

// putReader parks a bufio.Reader from frameReaderPool and recycles it.
func putReader(br *bufio.Reader) {
	br.Reset(eofReader{})
	frameReaderPool.Put(br)
}

// release returns the pooled bufio state. Call once, after the connection
// is done; the codec must not be used afterwards.
func (f *framedCodec) release() {
	if f.bw != nil {
		f.bw.Reset(io.Discard)
		frameWriterPool.Put(f.bw)
		f.bw = nil
	}
	if f.br != nil {
		putReader(f.br)
		f.br = nil
	}
}
