package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// framedPair is both ends of one framed connection over in-memory pipes,
// with pooled readers and writers exactly as a real connection gets them.
type framedPair struct {
	c2s, s2c       bytes.Buffer
	client, server *framedCodec
}

func newFramedPair(tb testing.TB, codec string) *framedPair {
	p := &framedPair{}
	var err error
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(&p.s2c)
	if p.client, err = newFramedCodec(codec, br, &p.c2s); err != nil {
		tb.Fatal(err)
	}
	br = frameReaderPool.Get().(*bufio.Reader)
	br.Reset(&p.c2s)
	if p.server, err = newFramedCodec(codec, br, &p.s2c); err != nil {
		tb.Fatal(err)
	}
	return p
}

// exchange sends e from one end and receives it at the other.
func exchange(tb testing.TB, from, to *framedCodec, e *Envelope) {
	if err := from.Send(e); err != nil {
		tb.Fatal(err)
	}
	if err := from.Flush(); err != nil {
		tb.Fatal(err)
	}
	if _, err := to.Recv(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFramedCodec prices the two framed encodings where a session
// pays for them. fresh-conn is one connection's opening — a new codec on
// each end, the ClientHello up and a 32-bundle Hello listing down — which
// is where framed gob sends and compiles its type dictionary. round is one
// warm perfect-information round: Quote up, Offer down, Settle up.
func BenchmarkFramedCodec(b *testing.B) {
	bundles := make([]BundleInfo, 32)
	for i := range bundles {
		bundles[i] = BundleInfo{ID: i, Features: []int{i % 7, i % 5, 7 + i%3}}
	}
	clientHello := &Envelope{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, Market: "titanic", ListOnly: true}}
	hello := &Envelope{Kind: KindHello, Hello: &Hello{Version: ProtocolVersion, Market: "titanic",
		Markets: []string{"titanic"}, Modes: []string{ModePerfect, ModeImperfect}, Bundles: bundles}}
	quote := &Envelope{Kind: KindQuote, SID: 1, Quote: &Quote{Round: 3, Rate: 1.25, Base: 0.5, High: 2.75, U: 1000, Target: 0.125}}
	offer := &Envelope{Kind: KindOffer, SID: 1, Offer: &Offer{BundleID: 4, Features: []int{1, 3}, TargetBundleID: 7}}
	settle := &Envelope{Kind: KindSettle, SID: 1, Settle: &Settle{Round: 3, Gain: 0.1119}}

	for _, codec := range framedCodecs {
		b.Run(codec, func(b *testing.B) {
			b.Run("fresh-conn", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := newFramedPair(b, codec)
					exchange(b, p.client, p.server, clientHello)
					exchange(b, p.server, p.client, hello)
					p.client.release()
					p.server.release()
				}
			})
			b.Run("round", func(b *testing.B) {
				p := newFramedPair(b, codec)
				defer p.client.release()
				defer p.server.release()
				exchange(b, p.client, p.server, clientHello)
				exchange(b, p.server, p.client, hello)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exchange(b, p.client, p.server, quote)
					exchange(b, p.server, p.client, offer)
					exchange(b, p.client, p.server, settle)
				}
			})
		})
	}
}
