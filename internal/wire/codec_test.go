package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func sampleEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindClientHello, Client: &ClientHello{Version: 2, Market: "titanic", ListOnly: true}},
		{Kind: KindHello, Hello: &Hello{
			Version: 2, Market: "credit", Markets: []string{"titanic", "credit"},
			Bundles: []BundleInfo{{ID: 0, Features: []int{0, 2}}},
			Secure:  true, PubN: []byte{1, 2, 3},
		}},
		{Kind: KindQuote, Quote: &Quote{Round: 3, Rate: 1.25, Base: 0.5, High: 2.75, U: 1000, Target: 0.125}},
		{Kind: KindOffer, Offer: &Offer{BundleID: 4, Features: []int{1, 3}, Accept: true, TargetBundleID: 7}},
		{Kind: KindOffer, Offer: &Offer{BundleID: -1, Fail: true, Reason: "Case 1", TargetBundleID: 2}},
		{Kind: KindSettle, Settle: &Settle{Round: 3, Decision: core.SettleAccept, Gain: 0.1119}},
		{Kind: KindError, Err: &ErrorMsg{Msg: "unknown market"}},
	}
}

// roundTrip frames envs in the named encoding and decodes them back.
func roundTrip(t *testing.T, name string, envs []*Envelope) []*Envelope {
	t.Helper()
	stream := validFrameStream(t, name, envs...)
	fc, err := newFramedCodec(name, bufio.NewReader(bytes.NewReader(stream)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Envelope
	for range envs {
		e, err := fc.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		got = append(got, e)
	}
	return got
}

// TestCodecsRoundTripEnvelopes: every envelope shape must survive both
// framed encodings bit-exactly (floats included).
func TestCodecsRoundTripEnvelopes(t *testing.T) {
	for _, name := range framedCodecs {
		t.Run(name, func(t *testing.T) {
			if got := roundTrip(t, name, sampleEnvelopes()); !reflect.DeepEqual(got, sampleEnvelopes()) {
				t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, sampleEnvelopes())
			}
		})
	}
	if _, err := newFramedCodec("xml", bufio.NewReader(nil), nil); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestHandshakeRoundTrip pins the preamble grammar: "VFLM/6 <bin|gob> mux"
// and nothing else, every refusal an ErrBadHandshake.
func TestHandshakeRoundTrip(t *testing.T) {
	for _, name := range framedCodecs {
		var buf bytes.Buffer
		if err := writeMuxHandshake(&buf, name); err != nil {
			t.Fatal(err)
		}
		got, err := readHandshake(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got != name {
			t.Fatalf("codec = %q, want %q", got, name)
		}
	}

	for _, bad := range []string{"", "HTTP/1.1 GET /\n", "VFLM/1 gob\n", "VFLM/6 gob\n", "VFLM/6 json mux\n",
		"VFLM/5 bin mux\n", "VFLM/7 bin mux\n", "VFLM/6 bin mux extra\n",
		"VFLM/6 " + strings.Repeat("x", 100) + " mux\n"} {
		if _, err := readHandshake(bufio.NewReader(strings.NewReader(bad))); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("preamble %q: err = %v, want ErrBadHandshake", bad, err)
		}
	}
}

// TestServeConnTimesOutOnStalledClient: a client that opens a session and
// then goes silent fails the server's session on the stream's own receive
// timer with an ErrPeerTimeout-classified error, instead of hanging it.
func TestServeConnTimesOutOnStalledClient(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 61)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	hello := mustHello(t, srv)
	errCh := make(chan error, 1)
	mc, shutdown := startMux(t, 50*time.Millisecond, func(st *MuxStream, _ *ClientHello) {
		_, err := srv.ServeCodec(st, hello)
		errCh <- err
	})
	defer shutdown()
	// Take the Hello, then stall without ever quoting.
	if _, _, err := mc.Open(context.Background(), ClientHello{}, time.Minute); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("err = %v, want ErrPeerTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a stalled client despite its stream timer")
	}
}

// TestClientTimesOutOnStalledServer is the client-side mirror: a server
// that never answers the first quote fails the client's session on its own
// receive timer.
func TestClientTimesOutOnStalledServer(t *testing.T) {
	_, cfg, gains := buildMarket(t, 67)
	mc, shutdown := startMux(t, time.Minute, func(st *MuxStream, _ *ClientHello) {
		// Say hello, then go silent (swallow the client's quote) until the
		// stream dies.
		if st.Send(&Envelope{Kind: KindHello, Hello: &Hello{}}) != nil {
			return
		}
		for {
			if _, err := st.Recv(); err != nil {
				return
			}
		}
	})
	defer shutdown()
	s, hello, err := mc.Open(context.Background(), ClientHello{}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	client := &TaskClient{Session: cfg, Gains: gains}
	done := make(chan error, 1)
	go func() {
		_, err := client.BargainCodec(context.Background(), s, hello)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerTimeout) {
			t.Fatalf("err = %v, want ErrPeerTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on a stalled server despite its stream timer")
	}
	s.Close()
}
