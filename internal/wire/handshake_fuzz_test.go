package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// handshakeCorpus is the FuzzHandshake seed set: both valid openings, each
// preamble the server refuses, and well-formed preambles followed by a
// first frame that is torn, oversized, of the wrong kind, or empty.
func handshakeCorpus(t testing.TB) [][]byte {
	hello := &Envelope{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, Market: "titanic", ListOnly: true}}
	opening := func(name string, envs ...*Envelope) []byte {
		return append([]byte("VFLM/6 "+name+" mux\n"), validFrameStream(t, name, envs...)...)
	}
	bin := opening(CodecBinary, hello)
	oversize := binary.BigEndian.AppendUint32([]byte("VFLM/6 bin mux\n"), maxFrameSize+1)
	return [][]byte{
		bin,
		opening(CodecGob, hello),
		opening(CodecBinary, &Envelope{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, StatsOnly: true}}),
		opening(CodecBinary, &Envelope{Kind: KindQuote, Quote: &Quote{Round: 1}}),
		opening(CodecBinary, &Envelope{Kind: KindClientHello}),
		bin[:len(bin)-3],
		[]byte("VFLM/6 bin mux\n"),
		oversize,
		[]byte("VFLM/6 gob\n"),
		[]byte("VFLM/5 bin mux\n"),
		[]byte("VFLM/7 bin mux\n"),
		[]byte("VFLM/6 json mux\n{\"Kind\":5}\n"),
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		bytes.Repeat([]byte{'V'}, 2*maxHandshakeLen),
		nil,
	}
}

// FuzzHandshake feeds arbitrary bytes to the accept side of a connection's
// opening: the preamble, then the first framed envelope, which must be a
// ClientHello. Every refusal must be an ErrBadHandshake — never a panic,
// an untyped error, or a half-accepted hello.
func FuzzHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ch, err := acceptHello(bufio.NewReader(bytes.NewReader(data)), io.Discard)
		if err != nil {
			if ch != nil || !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("handshake error %v with hello %+v; want a nil hello and ErrBadHandshake", err, ch)
			}
			return
		}
		if fc == nil || ch == nil {
			t.Fatalf("accepted handshake without codec (%v) or hello (%v)", fc, ch)
		}
	})
}
