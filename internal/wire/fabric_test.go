package wire

// Protocol-level tests of the v5 fabric envelopes: KindRedirect and
// KindStats round-trip both codecs bit-exactly, a redirect surfaces as the
// typed *RedirectError (matching the ErrRedirected sentinel), and
// FetchStats runs the full admin exchange over a real connection, on the
// binary mux wire.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

func fabricEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindRedirect, Redirect: &Redirect{Market: "titanic", Addr: "10.1.2.3:7070", Epoch: 17}},
		{Kind: KindStats, Stats: &StatsReport{
			Server: ServerStats{Accepted: 12, Sessions: 9, Closed: 7, Failed: 1, Busy: 2, Redirected: 3,
				Evicted: 1, Dropped: 4, Watchdog: 1, Quarantined: 1, Active: 2},
			Markets: map[string]MarketStats{
				"titanic": {Sessions: 6, ImperfectSessions: 2, ResumedSessions: 1, ActiveSessions: 1,
					OracleTrainings: 4, OracleCachedGains: 32, OracleHits: 100, CheckpointedClients: 2},
			},
			Epoch: 17,
		}},
		{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, StatsOnly: true}},
	}
}

func TestFabricEnvelopesRoundTripBothCodecs(t *testing.T) {
	for _, name := range CodecNames() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			c, err := NewCodec(name, &buf, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range fabricEnvelopes() {
				if err := c.Send(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range fabricEnvelopes() {
				got, err := c.Recv()
				if err != nil {
					t.Fatalf("recv %v: %v", want.Kind, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
				}
			}
		})
	}
}

// TestRedirectSurfacesAsTypedError: a KindRedirect received where a Hello
// was expected must come back as a *RedirectError carrying the owner's
// address, matching ErrRedirected and NOT the terminal ErrRejected (a
// redirect is an instruction, not a refusal).
func TestRedirectSurfacesAsTypedError(t *testing.T) {
	var buf bytes.Buffer
	c, _ := NewCodec(CodecGob, &buf, &buf)
	SendRedirect(c, &Redirect{Market: "credit", Addr: "127.0.0.1:9999", Epoch: 3})
	_, err := link{c}.recv(KindHello)
	if err == nil {
		t.Fatal("redirect envelope accepted as a Hello")
	}
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RedirectError", err)
	}
	if re.Addr != "127.0.0.1:9999" || re.Market != "credit" || re.Epoch != 3 {
		t.Fatalf("redirect payload mangled: %+v", re)
	}
	if !errors.Is(err, ErrRedirected) {
		t.Fatalf("err = %v does not match ErrRedirected", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Fatal("a redirect must not read as a terminal rejection")
	}

	// A redirect without its payload is a framing violation, not a panic.
	var buf2 bytes.Buffer
	c2, _ := NewCodec(CodecGob, &buf2, &buf2)
	if err2 := c2.Send(&Envelope{Kind: KindRedirect}); err2 != nil {
		t.Fatal(err2)
	}
	if _, err := (link{c2}).recv(KindHello); err == nil || errors.Is(err, ErrRedirected) {
		t.Fatalf("payload-less redirect: err = %v, want plain framing error", err)
	}
}

// TestFetchStatsOverConnection runs the admin exchange end to end: a
// server goroutine accepts the binary mux preamble, answers the StatsOnly
// hello with a snapshot, and FetchStats returns it intact.
func TestFetchStatsOverConnection(t *testing.T) {
	want := &StatsReport{
		Server:  ServerStats{Accepted: 5, Sessions: 4, Closed: 3},
		Markets: map[string]MarketStats{"adult": {Sessions: 4, OracleTrainings: 2}},
		Epoch:   9,
	}
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		defer serverConn.Close()
		codec, ch, mux, err := AcceptHandshakeMux(serverConn, 5*time.Second)
		if err != nil {
			return
		}
		if !mux || codec.Name() != CodecBinary || !ch.StatsOnly || ch.Version != ProtocolVersion {
			SendError(codec, "not a binary mux stats hello")
			return
		}
		_ = codec.Send(&Envelope{Kind: KindStats, Stats: want})
		_ = Flush(codec)
	}()
	got, err := FetchStats(context.Background(), clientConn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats mangled over the wire:\ngot  %+v\nwant %+v", got, want)
	}
}
