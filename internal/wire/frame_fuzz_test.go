package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// validFrameStream encodes envelopes through the real framed codec,
// returning the exact bytes a peer would put on the wire.
func validFrameStream(t testing.TB, codec string, envs ...*Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	fc, err := newFramedCodec(codec, bufio.NewReader(eofReader{}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if err := fc.Send(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framedCodecs are the encodings the mux speaks: the binary envelope and
// framed gob, kept for OpenMux callers that name it.
var framedCodecs = []string{CodecBinary, CodecGob}

// FuzzFrameDecode feeds arbitrary bytes to the framed decoder: truncated,
// oversized, zero-length, and bit-flipped frames must all surface as
// errors — never a panic, a hang, or a giant allocation. The seeds are
// binary frame streams; every input is also fed to framed gob. The binary
// stream is decoded twice, onto the heap and into one session's receive
// boxes, and both must yield the same envelopes and the same error.
func FuzzFrameDecode(f *testing.F) {
	valid := validFrameStream(f, CodecBinary,
		&Envelope{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, Market: "titanic"}},
		&Envelope{Kind: KindQuote, Quote: &Quote{Round: 3, Rate: 12.5}},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn mid-frame
	f.Add(valid[:2])            // torn mid-length-prefix
	f.Add([]byte{0, 0, 0, 0})   // zero-length frame
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, maxFrameSize+1)
	f.Add(oversize) // hostile length prefix
	corrupt := append([]byte(nil), valid...)
	corrupt[7] ^= 0xFF
	f.Add(corrupt) // bit flip inside a payload
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Add(validFrameStream(f, CodecGob, &Envelope{Kind: KindQuote, Quote: &Quote{Round: 3, Rate: 12.5}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		heap, herr := recvAll(t, CodecBinary, data, nil)
		var boxes envBoxes
		boxed, berr := recvAll(t, CodecBinary, data, &boxes)
		if fmt.Sprint(herr) != fmt.Sprint(berr) || !slices.EqualFunc(heap, boxed, bytes.Equal) {
			t.Fatalf("heap and box decodes differ:\nheap %x, %v\nbox  %x, %v", heap, herr, boxed, berr)
		}
		_, _ = recvAll(t, CodecGob, data, nil)
	})
}

// recvAll decodes data as a frame stream until the first error and returns
// every envelope re-encoded in the binary layout. The loop is bounded: a
// stream of len(data) bytes holds at most len(data)/5 non-empty frames, so
// it cannot spin. With boxes set, they take every per-round frame, and each
// envelope goes back to them before the next Recv, as a session's does.
func recvAll(t *testing.T, codec string, data []byte, boxes *envBoxes) ([][]byte, error) {
	fc, err := newFramedCodec(codec, bufio.NewReader(bytes.NewReader(data)), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if boxes != nil {
		fc.boxes = func(uint64) *envBoxes { return boxes }
	}
	var out [][]byte
	for i := 0; i <= len(data)/5+1; i++ {
		e, err := fc.Recv()
		if err != nil {
			return out, err
		}
		out = append(out, appendEnvelope(nil, e))
		if boxes != nil {
			boxes.put(e)
		}
	}
	return out, nil
}

// A zero or oversized length prefix is a typed ErrBadFrame, and a torn
// frame surfaces as unexpected EOF — both transport-distinguishable from
// codec garbage.
func TestFrameDecodeTypedErrors(t *testing.T) {
	recvErr := func(data []byte) error {
		fc, err := newFramedCodec(CodecBinary, bufio.NewReader(bytes.NewReader(data)), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := fc.Recv()
		return rerr
	}

	if err := recvErr([]byte{0, 0, 0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame: err = %v, want ErrBadFrame", err)
	}
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, maxFrameSize+1)
	if err := recvErr(oversize); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame: err = %v, want ErrBadFrame", err)
	}
	valid := validFrameStream(t, CodecBinary, &Envelope{Kind: KindQuote, Quote: &Quote{Round: 1}})
	if err := recvErr(valid[:len(valid)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := recvErr(valid[:2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn length prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := recvErr(nil); err != io.EOF {
		t.Fatalf("clean end of stream: err = %v, want io.EOF", err)
	}
	// A well-framed payload that is not an envelope is an *EnvelopeError.
	garbage := binary.BigEndian.AppendUint32(nil, 3)
	garbage = append(garbage, 0x04, 0x00, 0xFF)
	var ee *EnvelopeError
	if err := recvErr(garbage); !errors.As(err, &ee) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("undecodable payload: err = %v, want *EnvelopeError wrapping ErrBadFrame", err)
	}
}

// The frame reader must never consume bytes beyond the frames its
// envelopes occupy: after decoding everything, trailing bytes that belong
// to the next protocol layer are still unread in the buffered reader.
func TestFrameDecodeNoOverRead(t *testing.T) {
	for _, codec := range framedCodecs {
		t.Run(codec, func(t *testing.T) {
			stream := validFrameStream(t, codec,
				&Envelope{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, Market: "adult"}},
				&Envelope{Kind: KindQuote, Quote: &Quote{Round: 7, Rate: 3.25}},
			)
			trailer := []byte("TRAILING-BYTES-NOT-A-FRAME")
			br := bufio.NewReader(bytes.NewReader(append(stream, trailer...)))
			fc, err := newFramedCodec(codec, br, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := fc.Recv(); err != nil {
					t.Fatalf("envelope %d: %v", i, err)
				}
			}
			got := make([]byte, len(trailer))
			if _, err := io.ReadFull(br, got); err != nil {
				t.Fatalf("reading trailer after frames: %v", err)
			}
			if !bytes.Equal(got, trailer) {
				t.Fatalf("decoder over-read past the frame boundary: trailer = %q", got)
			}
		})
	}
}
