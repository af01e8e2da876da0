package wire

import (
	"context"
	"testing"
	"time"
)

// Failure injection: the protocol endpoints must fail cleanly — returning
// errors, never hanging or panicking — when the peer disappears or
// misbehaves mid-session.

func TestServerSurvivesClientDisconnectAfterHello(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 41)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	c, done := serveCatalogPipe(t, srv)
	if _, err := (link{c}).recv(KindHello); err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // vanish before quoting
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("server treated a dropped client as a clean session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on client disconnect")
	}
}

func TestServerSurvivesClientDisconnectMidRound(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 43)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	c, done := serveCatalogPipe(t, srv)
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	// Quote, take the offer, then vanish before settling.
	if err := l.send(&Envelope{Kind: KindQuote, Quote: &Quote{Rate: 10, Base: 2, High: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindOffer); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("server treated a mid-round drop as clean")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on mid-round disconnect")
	}
}

func TestClientSurvivesServerDisconnect(t *testing.T) {
	_, cfg, gains := buildMarket(t, 47)
	// A "server" that sends Hello and dies.
	c, _ := servePipe(t, func(c Codec) (*SessionSummary, error) {
		return nil, c.Send(&Envelope{Kind: KindHello, Hello: &Hello{}})
	})
	he, err := link{c}.recv(KindHello)
	if err != nil {
		t.Fatal(err)
	}
	client := &TaskClient{Session: cfg, Gains: gains}
	done := make(chan error, 1)
	go func() {
		_, err := client.BargainCodec(context.Background(), c, he.Hello)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("client treated a dead server as a clean session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on server disconnect")
	}
}

// TestClientRejectsMalformedHello: a stream whose server answers the open
// with anything but a Hello fails the open instead of starting a session.
func TestClientRejectsMalformedHello(t *testing.T) {
	mc, shutdown := startMux(t, 5*time.Second, func(st *MuxStream, _ *ClientHello) {
		// Wrong kind first.
		_ = st.Send(&Envelope{Kind: KindOffer, Offer: &Offer{}})
	})
	defer shutdown()
	done := make(chan error, 1)
	go func() {
		_, _, err := mc.Open(context.Background(), ClientHello{}, 5*time.Second)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("client accepted a non-Hello opener")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung on malformed hello")
	}
}

func TestServerRoundCapEndsRunawaySession(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 59)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	srv.MaxRounds = 3
	c, done := serveCatalogPipe(t, srv)
	l := link{c}
	if _, err := l.recv(KindHello); err != nil {
		t.Fatal(err)
	}
	// A client that quotes forever without ever accepting.
	for i := 0; i < 4; i++ {
		if err := l.send(&Envelope{Kind: KindQuote,
			Quote: &Quote{Rate: 10, Base: 2, High: 4 + float64(i)*0.01}}); err != nil {
			break // server already gave up — also acceptable
		}
		oe, err := l.recv(KindOffer)
		if err != nil {
			break
		}
		if oe.Offer.Fail {
			t.Fatal("unexpected Case 1")
		}
		if err := l.send(&Envelope{Kind: KindSettle,
			Settle: &Settle{Gain: 0.01, Decision: DecisionContinue}}); err != nil {
			break
		}
	}
	_ = c.Flush()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("server allowed a runaway session past its round cap")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung past its round cap")
	}
}
