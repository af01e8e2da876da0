package wire

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/core"
	"repro/internal/secure"
)

// TaskClient is the task party endpoint: it drives the negotiation with the
// strategic quote escalation and termination Cases 4–6, playing the exact
// game loop of the in-process engine (core.Session.RunPerfectWith) over the
// wire.
type TaskClient struct {
	Session core.SessionConfig
	// Gains realizes the VFL course for an offered bundle (the task party's
	// side of Step 3).
	Gains core.GainProvider
	// Observers stream the session's realized rounds and outcome, exactly
	// as in-process observers do.
	Observers []core.RoundObserver
	// Noise, when non-nil, is a pool of precomputed encryption randomizers
	// for the server's public key: secure settlements then cost one mulmod
	// each in steady state instead of a full modexp. Callers running many
	// sessions against one server share a pool across their TaskClients
	// (see vflmarket.Client). The pool's key must match the server's.
	Noise *secure.NoiseSource
	// Checkpoint, when non-nil, receives the task party's frozen session
	// state after every mutually settled non-terminal round of an imperfect
	// session — the client half of resume. Feed the last one received to
	// ResumeImperfectCodec on a fresh connection to continue after a broken
	// one.
	Checkpoint func(*core.ImperfectCheckpoint)
}

// BargainCodec runs one perfect-information session over an established
// codec (a mux session) after the server's Hello has been received.
func (t *TaskClient) BargainCodec(ctx context.Context, c Codec, hello *Hello) (*core.Result, error) {
	var reporter *secure.TaskReporter
	if hello.Secure {
		pk := secure.NewPublicKey(new(big.Int).SetBytes(hello.PubN))
		reporter = secure.NewTaskReporter(pk, rand.Reader, secure.WithNoise(t.Noise))
	}
	seller := &remoteSeller{
		l:        link{c},
		listing:  hello.Bundles,
		reporter: reporter,
		u:        t.Session.U,
		target:   t.Session.TargetGain,
	}
	sess := core.NewSession(nil, t.Session).Observe(t.Observers...)
	return sess.RunPerfectWith(ctx, seller, t.Gains)
}

// BargainImperfectCodec runs one imperfect-information session over an
// established codec opened in ModeImperfect: the identical
// estimation-based game loop as core.Session.RunImperfect, with the remote
// data party serving bundles and acknowledging every settlement with its
// estimator's MSE. The server must have been helloed with the same
// ImperfectHello this client derived its session from, or the streams
// diverge.
func (t *TaskClient) BargainImperfectCodec(ctx context.Context, c Codec, hello *Hello, params core.ImperfectParams) (*core.ImperfectResult, error) {
	sess, seller, err := t.imperfectSession(c, hello)
	if err != nil {
		return nil, err
	}
	return sess.RunImperfectWith(ctx, params, seller, t.Gains)
}

// ResumeImperfectCodec continues a checkpointed imperfect session over a
// fresh connection whose handshake asked for the resume (ImperfectHello
// with the same ClientID and ResumeRound = ck.Round): the server restores
// its own checkpoint and both parties pick up from round ck.Round+1,
// bit-identically to the uninterrupted run. The server's Hello must confirm
// the granted resume, or the streams would silently diverge.
func (t *TaskClient) ResumeImperfectCodec(ctx context.Context, c Codec, hello *Hello, params core.ImperfectParams, ck *core.ImperfectCheckpoint) (*core.ImperfectResult, error) {
	if ck == nil {
		return nil, fmt.Errorf("wire: resume needs a checkpoint")
	}
	if hello.Resumed != ck.Round {
		return nil, fmt.Errorf("wire: server confirmed resume through round %d, checkpoint is at round %d", hello.Resumed, ck.Round)
	}
	sess, seller, err := t.imperfectSession(c, hello)
	if err != nil {
		return nil, err
	}
	return sess.ResumeImperfectWith(ctx, params, ck, seller, t.Gains)
}

// imperfectSession builds the session and remote seller both imperfect
// entry points drive; checkpoints reach t.Checkpoint through the seller's
// hold, which completes them with the pipelined Ack's MSE.
func (t *TaskClient) imperfectSession(c Codec, hello *Hello) (*core.Session, *remoteSeller, error) {
	if hello.Secure {
		return nil, nil, fmt.Errorf("wire: the imperfect regime needs cleartext settlement; the server settles under Paillier")
	}
	seller := &remoteSeller{
		l:       link{c},
		listing: hello.Bundles,
		u:       t.Session.U,
		target:  t.Session.TargetGain,
		ackMSE:  true,
		sink:    t.Checkpoint,
	}
	sess := core.NewSession(nil, t.Session).Observe(t.Observers...)
	if t.Checkpoint != nil {
		sess.OnCheckpoint(seller.holdCheckpoint)
	}
	return sess, seller, nil
}

// remoteSeller adapts the wire protocol's data party to core.Seller: each
// Offer sends a Quote and waits for the server's bundle, each Settle
// reports the decision (with the gain in clear, or the Eq. 2 payment under
// Paillier), and Abandon is the clean walk-away notice. In imperfect mode
// (ackMSE) every settlement additionally collects the server's Ack with its
// estimator MSE, implementing core.MSEReporter.
//
// The rounds are pipelined: a non-terminal Settle returns without reading
// its Ack, the next Offer's Quote goes out immediately (one buffered write
// with the Settle on the framed wire), and the pending Ack is drained right
// before that Offer's reply — so a steady-state round costs one RTT instead
// of two. The envelope sequence is the same as a lockstep exchange, which
// is what keeps resume and bit-identity intact: the server being "one
// round ahead" at any cut point is exactly the state its checkpoint replay
// machinery handles. The session checkpoint taken between a Settle and the
// Ack drain is held back (holdCheckpoint) and completed with the drained
// MSE before reaching the caller's sink, so a resumed run sees the same
// checkpoint a lockstep run would have produced.
type remoteSeller struct {
	l        link
	listing  []BundleInfo // the session Hello's
	reporter *secure.TaskReporter
	u        float64
	target   float64
	ackMSE   bool
	mse      []float64

	ackWait bool
	held    *core.ImperfectCheckpoint
	sink    func(*core.ImperfectCheckpoint)

	// Send-path scratch, reused every round: the codec does not retain its
	// argument past Send, and a session drives its seller from one
	// goroutine, so the per-round Quote and Settle envelopes need no heap
	// churn.
	env    Envelope
	quote  Quote
	settle Settle
}

// sendScratch ships the scratch envelope, whole-struct-assigned first so no
// stale payload pointer from a previous round survives.
func (r *remoteSeller) sendScratch(e Envelope) error {
	r.env = e
	return r.l.send(&r.env)
}

// drainAck reads the settlement Ack a pipelined Settle left in flight,
// completing the MSE series and releasing a held checkpoint.
func (r *remoteSeller) drainAck() error {
	e, err := r.l.recv(KindAck)
	if err != nil {
		return err
	}
	r.ackWait = false
	r.mse = append(r.mse, e.Ack.DataMSE)
	if ck := r.held; ck != nil {
		r.held = nil
		ck.DataMSE = append(ck.DataMSE, e.Ack.DataMSE)
		if r.sink != nil {
			r.sink(ck)
		}
	}
	return nil
}

// holdCheckpoint is the session's OnCheckpoint hook: a
// checkpoint cut while an Ack is still in flight is missing that round's
// MSE, so it waits for the drain. If the session dies before the drain the
// checkpoint is never delivered — the caller resumes one round earlier and
// the server-side replay covers the gap.
func (r *remoteSeller) holdCheckpoint(ck *core.ImperfectCheckpoint) {
	if r.ackWait {
		r.held = ck
		return
	}
	if r.sink != nil {
		r.sink(ck)
	}
}

func (r *remoteSeller) Offer(round int, q core.QuotedPrice) (core.SellerOffer, error) {
	r.quote = Quote{
		Round: round, Rate: q.Rate, Base: q.Base, High: q.High,
		U: r.u, Target: r.target,
	}
	err := r.sendScratch(Envelope{Kind: KindQuote, Quote: &r.quote})
	if err != nil {
		return core.SellerOffer{}, err
	}
	if r.ackWait {
		if err := r.drainAck(); err != nil {
			return core.SellerOffer{}, err
		}
	}
	e, err := r.l.recv(KindOffer)
	if err != nil {
		return core.SellerOffer{}, err
	}
	o := e.Offer
	return core.SellerOffer{
		BundleID: o.BundleID, Features: r.features(o),
		Accept: o.Accept, Fail: o.Fail, Reason: o.Reason,
		TargetBundleID: o.TargetBundleID,
	}, nil
}

// features returns the offered bundle's features as the session Hello
// lists them, or a copy of the offer's own when the listing has no equal
// entry: the offer's slice lives in a receive envelope that a later round
// reuses, and core hands it to the gain provider and observers.
func (r *remoteSeller) features(o *Offer) []int {
	for _, b := range r.listing {
		if b.ID == o.BundleID {
			if slices.Equal(b.Features, o.Features) {
				return b.Features
			}
			break
		}
	}
	return slices.Clone(o.Features)
}

func (r *remoteSeller) Settle(round int, rec core.RoundRecord, d core.SettleDecision) error {
	r.settle = Settle{Round: round, Decision: decisionOf(d)}
	switch {
	case r.reporter == nil:
		r.settle.Gain = rec.Gain
	case d == core.SettleAccept:
		// Only the closing round is paid, so only its payment is sealed.
		rep, err := r.reporter.Report(rec.Payment)
		if err != nil {
			return err
		}
		r.settle.EncPayment = rep.EncPayment.C.Bytes()
	}
	if err := r.sendScratch(Envelope{Kind: KindSettle, Settle: &r.settle}); err != nil {
		return err
	}
	if r.ackMSE {
		if d == core.SettleContinue {
			// Leave the Ack in flight; the next Offer drains it together
			// with its own reply.
			r.ackWait = true
			return nil
		}
		return r.drainAck()
	}
	return nil
}

func (r *remoteSeller) Abandon(round int) error {
	r.settle = Settle{Round: round, Decision: DecisionFail}
	if err := r.sendScratch(Envelope{Kind: KindSettle, Settle: &r.settle}); err != nil {
		return err
	}
	if r.ackWait {
		// A pipelined Ack is still owed; collect it so the MSE series the
		// session reads after the walk-away is complete.
		return r.drainAck()
	}
	return nil
}

// DataMSE implements core.MSEReporter from the server's settlement
// acknowledgements.
func (r *remoteSeller) DataMSE() []float64 { return r.mse }
