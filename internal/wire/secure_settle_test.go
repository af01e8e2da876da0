package wire

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/secure"
)

// settleLog is a server-side codec that records every Offer the server
// sends and every Settle it receives, in order.
type settleLog struct {
	Codec
	events []settleEvent
}

// settleEvent is one recorded envelope: an Offer (settle == nil) or a
// Settle.
type settleEvent struct {
	offer  Offer
	settle *Settle
}

func (c *settleLog) Send(e *Envelope) error {
	if e.Kind == KindOffer {
		c.events = append(c.events, settleEvent{offer: *e.Offer})
	}
	return c.Codec.Send(e)
}

func (c *settleLog) Recv() (*Envelope, error) {
	e, err := c.Codec.Recv()
	if err == nil && e.Kind == KindSettle {
		st := *e.Settle
		st.EncPayment = append([]byte(nil), st.EncPayment...)
		c.events = append(c.events, settleEvent{settle: &st})
	}
	return e, err
}

// quantizeGain is the payment a secure server opens for a clear payment p.
func quantizeGain(p float64) float64 {
	return math.Round(p*secure.GainScale) / secure.GainScale
}

// TestSecureSealsOnlyTheClosingRound plays secure sessions over many seeds
// and checks every Settle the server receives: a ciphertext rides on
// exactly the round that closes — the buyer's accept, or the data party's
// own commitment (Case 2) — and on no Continue round or walk-away. The
// server's settled payment is the client's final payment quantized to
// 1/GainScale, bit for bit.
func TestSecureSealsOnlyTheClosingRound(t *testing.T) {
	keys := testKeys(t)
	var case2, failTask, maxRounds, continues int
	for seed := uint64(1); seed <= 12; seed++ {
		for _, variant := range []string{"plain", "short", "dud"} {
			cat, cfg, gains := buildMarket(t, seed)
			switch variant {
			case "short":
				cfg.MaxRounds = 2 // round exhaustion: FailMaxRounds
			case "dud":
				// The task party's course realizes a fifth of what the
				// catalog promises, so the break-even check walks away
				// (Case 4), on the first round or after a few.
				cfg.U = 100
				full := gains
				gains = core.GainFunc(func(f []int) float64 { return 0.2 * full.Gain(f) })
			}
			srv := NewDataServer(cat, cfg.EpsData, keys)
			hello := mustHello(t, srv)
			log := &settleLog{}
			c, done := servePipe(t, func(c Codec) (*SessionSummary, error) {
				log.Codec = c
				return srv.ServeCodec(log, hello)
			})
			he, err := link{c}.recv(KindHello)
			if err != nil {
				t.Fatal(err)
			}
			res, err := (&TaskClient{Session: cfg, Gains: gains}).BargainCodec(t.Context(), c, he.Hello)
			_ = c.Flush()
			c.conn.Close()
			srvSide := <-done
			if err != nil {
				t.Fatalf("seed %d %s: client: %v", seed, variant, err)
			}
			if srvSide.err != nil {
				t.Fatalf("seed %d %s: server: %v", seed, variant, srvSide.err)
			}

			var last Offer
			closing := 0
			for _, ev := range log.events {
				if ev.settle == nil {
					last = ev.offer
					continue
				}
				st := ev.settle
				closes := st.Decision == DecisionAccept ||
					(last.Accept && !last.Fail && st.Decision != DecisionFail)
				if sealed := len(st.EncPayment) > 0; sealed != closes {
					t.Fatalf("seed %d %s: round %d settle (decision %d, offer accept %v) sealed=%v, closes=%v",
						seed, variant, st.Round, st.Decision, last.Accept, sealed, closes)
				}
				if st.Gain != 0 {
					t.Fatalf("seed %d %s: secure settle carried gain %v in clear", seed, variant, st.Gain)
				}
				switch {
				case closes:
					closing++
					if last.Accept && st.Decision == DecisionAccept {
						case2++
					}
				case st.Decision == DecisionContinue:
					continues++
				}
			}

			closed := res.Outcome == core.Success
			want := 0
			if closed {
				want = 1
			}
			if closing != want {
				t.Fatalf("seed %d %s: %d closing settles for outcome %v", seed, variant, closing, res.Outcome)
			}
			if srvSide.sum.Closed != closed {
				t.Fatalf("seed %d %s: server closed=%v, client outcome %v", seed, variant, srvSide.sum.Closed, res.Outcome)
			}
			if closed && srvSide.sum.Payment != quantizeGain(res.Final.Payment) {
				t.Fatalf("seed %d %s: server settled %v, want %v quantized from %v",
					seed, variant, srvSide.sum.Payment, quantizeGain(res.Final.Payment), res.Final.Payment)
			}
			switch res.Outcome {
			case core.FailTask:
				failTask++
			case core.FailMaxRounds:
				maxRounds++
			}
		}
	}
	t.Logf("Case-2 closes %d, FailTask %d, FailMaxRounds %d, Continue settles %d", case2, failTask, maxRounds, continues)
	if case2 == 0 || failTask == 0 || maxRounds == 0 || continues == 0 {
		t.Fatalf("sessions missed a case: Case-2 closes %d, FailTask %d, FailMaxRounds %d, Continue settles %d",
			case2, failTask, maxRounds, continues)
	}
}

// TestSecureOpensOnlyTheClosingRound hand-drives single rounds of a secure
// session: a ciphertext on a round that does not close is never opened,
// even when it is out of range, and a Case-2 close without one fails
// (TestSecureSessionRequiresCiphertext covers an accept without one).
func TestSecureOpensOnlyTheClosingRound(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 29)
	srv := NewDataServer(cat, cfg.EpsData, testKeys(t))
	hello := mustHello(t, srv)
	n := new(big.Int).SetBytes(hello.PubN)
	outOfRange := new(big.Int).Mul(n, n).Bytes() // c = n² is not a ciphertext

	// quoteFor finds a quote whose offer is realized (not Fail) and, per
	// accept, is or is not the data party's Case-2 commitment.
	quoteFor := func(accept bool) *Quote {
		for id := 0; id < cat.Len(); id++ {
			target := cat.Gain(id)
			if !accept {
				target += 0.01
			}
			q := core.QuotedPrice{Rate: 10, Base: 2, High: 2 + 10*target}
			so := core.AnswerQuote(cat, q, cfg.U, srv.EpsData, srv.DataCost, 1, srv.EpsDataC)
			if !so.Fail && so.Accept == accept {
				return &Quote{Round: 1, Rate: q.Rate, Base: q.Base, High: q.High, U: cfg.U}
			}
		}
		t.Fatalf("no quote gives an offer with accept=%v", accept)
		return nil
	}

	for _, tc := range []struct {
		name    string
		accept  bool // the data party commits at the quote (Case 2)
		settle  Settle
		wantErr string // "" when the session must end cleanly
	}{
		{"continue-out-of-range", false, Settle{Round: 1, Decision: DecisionContinue, EncPayment: outOfRange}, ""},
		{"walkaway-out-of-range", false, Settle{Round: 1, Decision: DecisionFail, EncPayment: outOfRange}, ""},
		{"case2-without-ciphertext", true, Settle{Round: 1, Decision: DecisionContinue}, "without ciphertext"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, done := serveCatalogPipe(t, srv)
			l := link{c}
			if _, err := l.recv(KindHello); err != nil {
				t.Fatal(err)
			}
			if err := l.send(&Envelope{Kind: KindQuote, Quote: quoteFor(tc.accept)}); err != nil {
				t.Fatal(err)
			}
			if _, err := l.recv(KindOffer); err != nil {
				t.Fatal(err)
			}
			settle := tc.settle
			if err := l.send(&Envelope{Kind: KindSettle, Settle: &settle}); err != nil {
				t.Fatal(err)
			}
			if tc.wantErr == "" && settle.Decision == DecisionContinue {
				// The round did not close: walk away in place of the next
				// quote, which ends the session cleanly.
				if err := l.send(&Envelope{Kind: KindSettle, Settle: &Settle{Round: 2, Decision: DecisionFail}}); err != nil {
					t.Fatal(err)
				}
			}
			_ = c.Flush()
			c.conn.Close() // a server still waiting for a message fails instead of hanging
			r := <-done
			switch {
			case tc.wantErr == "" && r.err != nil:
				t.Fatalf("server failed a round that does not close: %v", r.err)
			case tc.wantErr == "" && r.sum.Closed:
				t.Fatal("server recorded a close")
			case tc.wantErr != "" && (r.err == nil || !strings.Contains(r.err.Error(), tc.wantErr)):
				t.Fatalf("server returned %v, want an error containing %q", r.err, tc.wantErr)
			}
		})
	}
}
