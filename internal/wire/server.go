package wire

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/secure"
)

// DataServer is the data party endpoint: it owns the catalog (with the
// third-party pre-computed gains) and answers quotes with the strategic
// bundle policy and termination Cases 1–3.
type DataServer struct {
	Catalog *core.Catalog
	// EpsData is εd of Case 2.
	EpsData float64
	// EpsImperfect is εd of the imperfect regime's Case II (it absorbs
	// estimation error, so it is typically much larger than EpsData). 0
	// falls back to EpsData.
	EpsImperfect float64
	// MaxRounds guards against runaway clients. <= 0 means 1000.
	MaxRounds int
	// MaxExplorationRounds caps the client-supplied N of the imperfect
	// handshake (ImperfectHello.ExplorationRounds): every exploration round
	// is estimator compute the server pays for, so a production server
	// refuses abusive asks instead of serving them. <= 0 means
	// DefaultMaxExplorationRounds.
	MaxExplorationRounds int
	// MaxReplaySteps caps the client-supplied per-round experience-replay
	// budget (ImperfectHello.ReplaySteps), the multiplier on the server's
	// per-settlement estimator compute. <= 0 means DefaultMaxReplaySteps.
	MaxReplaySteps int
	// DataCost and EpsDataC enable the Eq. 6 cost-aware acceptance (Case 3)
	// on the server, mirroring SessionConfig.DataCost/EpsDataC in-process.
	DataCost core.CostModel
	EpsDataC float64
	// Checkpoints, when non-nil, makes imperfect sessions durable: after
	// every settled round the seller's frozen state is saved under the
	// client identity of the hello, and a ResumeRound hello restores it
	// instead of starting fresh. Sessions share the registry, so it must be
	// safe for concurrent use. vflmarket.Server backs it with the snapshot
	// store.
	Checkpoints SellerCheckpoints

	// keys, when non-nil, makes the server settle under Paillier: it
	// publishes the public key in Hello and refuses cleartext settlements.
	// The key holds each generation's secure.DataReceiver, and a session
	// settles under the one its hello announced, which is how RotateKey
	// drains in-flight sessions gracefully.
	keys *secure.RotatingKey

	hello atomic.Pointer[keyedHello] // the last Hello built, by its key
}

type keyedHello struct {
	sk    *secure.PrivateKey // nil in clear
	hello *Hello
}

// SellerCheckpoints is the durable registry imperfect sessions checkpoint
// into, keyed by the client identity of the hello. Implementations must
// be safe for concurrent use; Save takes ownership of the checkpoint.
type SellerCheckpoints interface {
	Save(clientID string, ck *core.SellerCheckpoint)
	Load(clientID string) (*core.SellerCheckpoint, bool)
}

// Default server-side caps on the client-supplied work factors of the
// imperfect handshake. Both sit well above the paper's settings (N = 100,
// 4 replay steps) while bounding what one hello can make the server compute.
const (
	DefaultMaxExplorationRounds = 1000
	DefaultMaxReplaySteps       = 64
)

// ValidateClientID checks a client identity: empty (checkpointing off)
// or 1–64 bytes of [A-Za-z0-9_-]. The charset is filename-safe by
// construction — no dots, no separators — so an identity can never escape
// the server's checkpoint namespace.
func ValidateClientID(id string) error {
	if id == "" {
		return nil
	}
	if len(id) > 64 {
		return fmt.Errorf("wire: client identity exceeds 64 bytes")
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("wire: client identity contains %q; allowed are [A-Za-z0-9_-]", id[i])
		}
	}
	return nil
}

// NewDataServer builds a server over the catalog. A nil keys settles in
// clear; otherwise the server settles under Paillier with that key pair
// (secure.PersistedKey builds one, eagerly or with prime search in the
// background, in which case the first Hello or settlement blocks until the
// key lands).
func NewDataServer(cat *core.Catalog, epsData float64, keys *secure.RotatingKey) *DataServer {
	return &DataServer{Catalog: cat, EpsData: epsData, keys: keys}
}

// RotateKey rotates the server's Paillier key pair: the key generates and
// persists a fresh pair, new sessions are announced the fresh modulus in
// their Hello, and sessions opened under the previous key drain against its
// retained receiver. One prior generation is kept: rotating twice strands
// sessions of the first key, which then fail their settlements cleanly.
// Concurrent rotations run one after another.
func (s *DataServer) RotateKey() (pubN []byte, err error) {
	if s.keys == nil {
		return nil, fmt.Errorf("wire: cannot rotate keys on a cleartext server")
	}
	sk, err := s.keys.Rotate()
	if err != nil {
		return nil, err
	}
	return sk.N.Bytes(), nil
}

// SessionSummary is what the server records about one completed session.
type SessionSummary struct {
	// Rounds counts the realized bargaining rounds (quotes that drew a
	// bundle offer), matching len(Result.Rounds) on the client.
	Rounds   int
	Closed   bool // true when the transaction succeeded
	BundleID int
	Payment  float64 // the settled payment (decrypted in secure mode)
}

// Hello returns the server's announcement: the public listing and, in
// secure mode, the Paillier public key. It is built once per key
// generation (the catalog is immutable) and shared across concurrent
// sessions, so it is read-only: frontends announce a copy with the
// Version/Market/Markets/Modes fields filled. In secure mode Hello blocks
// until an in-flight key generation lands — the only error path.
func (s *DataServer) Hello() (*Hello, error) {
	var sk *secure.PrivateKey
	if s.keys != nil {
		var err error
		if sk, err = s.keys.Key(); err != nil {
			return nil, err
		}
	}
	if kh := s.hello.Load(); kh != nil && kh.sk == sk {
		return kh.hello, nil
	}
	hello := &Hello{Secure: sk != nil, Bundles: make([]BundleInfo, 0, s.Catalog.Len())}
	for _, b := range s.Catalog.Bundles {
		hello.Bundles = append(hello.Bundles, BundleInfo{ID: b.ID, Features: b.Features})
	}
	if sk != nil {
		hello.PubN = sk.N.Bytes()
	}
	s.hello.Store(&keyedHello{sk: sk, hello: hello})
	return hello, nil
}

// ServeCodec runs one perfect-information bargaining session over an
// established codec (a mux stream): send the hello, then answer quotes
// until the session settles or a party walks away.
func (s *DataServer) ServeCodec(c Codec, hello *Hello) (*SessionSummary, error) {
	return s.serve(link{c}, hello, catalogAnswerer{s}, 1)
}

// ImperfectSession is an imperfect hello the data party admitted: its
// estimator seller, built fresh or restored from the client identity's
// checkpoint, ready to serve. AdmitImperfect is the only way to get one.
type ImperfectSession struct {
	s       *DataServer
	a       *estimatorAnswerer
	resumed int // the client's last settled round; 0 for a fresh session
}

// AdmitImperfect vets an imperfect hello completely, before any Hello is
// written, and returns either the session ready to serve or the refusal a
// frontend sends back in an error envelope in place of the Hello. It
// checks the cleartext regime, the parameters' presence, the work factors
// against the server's caps, the client identity, the resume round, the
// target gain, and — for a resume — the checkpoint's load, match and
// restore. The caps apply to the values the session will actually run
// with: a zero hello field means the core default (100 exploration rounds,
// 4 replay steps), and that resolved value is what must clear the cap, so
// a server capped below the defaults cannot be bypassed by asking for
// "default".
func (s *DataServer) AdmitImperfect(ih *ImperfectHello) (*ImperfectSession, error) {
	if s.keys != nil {
		return nil, fmt.Errorf("wire: the imperfect regime trains on realized gains and needs cleartext settlement; this server settles under Paillier")
	}
	if ih == nil {
		return nil, fmt.Errorf("wire: imperfect session opened without parameters")
	}
	params := core.ImperfectParams{ExplorationRounds: ih.ExplorationRounds, ReplaySteps: ih.ReplaySteps}
	eff := params.WithDefaults()
	maxN := s.MaxExplorationRounds
	if maxN <= 0 {
		maxN = DefaultMaxExplorationRounds
	}
	if eff.ExplorationRounds > maxN {
		return nil, fmt.Errorf("wire: refused: %d exploration rounds exceed this server's cap of %d", eff.ExplorationRounds, maxN)
	}
	maxReplay := s.MaxReplaySteps
	if maxReplay <= 0 {
		maxReplay = DefaultMaxReplaySteps
	}
	if eff.ReplaySteps > maxReplay {
		return nil, fmt.Errorf("wire: refused: %d replay steps per round exceed this server's cap of %d", eff.ReplaySteps, maxReplay)
	}
	if err := ValidateClientID(ih.ClientID); err != nil {
		return nil, err
	}
	if ih.ResumeRound < 0 {
		return nil, fmt.Errorf("wire: negative resume round %d", ih.ResumeRound)
	}
	if ih.ResumeRound > 0 && ih.ClientID == "" {
		return nil, fmt.Errorf("wire: resuming a session requires a client identity")
	}
	if !(ih.Target > 0) || math.IsInf(ih.Target, 0) {
		return nil, fmt.Errorf("wire: imperfect session needs a positive finite target gain, got %v", ih.Target)
	}
	eps := s.EpsImperfect
	if eps == 0 {
		eps = s.EpsData
	}
	cfg := core.EstimatorSellerConfig{Seed: ih.Seed, Target: ih.Target, EpsData: eps, Params: params}
	a := &estimatorAnswerer{}
	if ih.ResumeRound > 0 {
		seller, ck, err := s.restoreSeller(ih, cfg)
		if err != nil {
			return nil, err
		}
		a.seller = seller
		if ck.Round == ih.ResumeRound+1 {
			// The settle landed but its ack never reached the client: replay
			// round ck.Round's offer and pre-update MSE verbatim — no
			// training, no rng draws — so the retransmitted settlement is
			// absorbed idempotently.
			a.replayRound = ck.Round
			a.replayOffer = ck.LastOffer
			a.replayMSE = ck.LastMSE
		}
	} else {
		a.seller = core.NewEstimatorSeller(s.Catalog, cfg)
	}
	if ih.ClientID != "" && s.Checkpoints != nil {
		id := ih.ClientID
		a.save = func(ck *core.SellerCheckpoint) { s.Checkpoints.Save(id, ck) }
	}
	return &ImperfectSession{s: s, a: a, resumed: ih.ResumeRound}, nil
}

// restoreSeller loads the checkpoint a resume hello names, checks it
// against the hello's seller configuration, and restores the seller from
// it. The server checkpoints after its settlement, the client after the
// ack lands, so a crash between the two leaves the server exactly one
// round ahead: R and R+1 are the only resumable offsets.
func (s *DataServer) restoreSeller(ih *ImperfectHello, cfg core.EstimatorSellerConfig) (*core.EstimatorSeller, *core.SellerCheckpoint, error) {
	if s.Checkpoints == nil {
		return nil, nil, fmt.Errorf("wire: this server does not checkpoint sessions; cannot resume")
	}
	ck, ok := s.Checkpoints.Load(ih.ClientID)
	if !ok {
		return nil, nil, fmt.Errorf("wire: no checkpoint for identity %q; start fresh", ih.ClientID)
	}
	if !ck.Matches(cfg) {
		return nil, nil, fmt.Errorf("wire: checkpoint for identity %q was taken under different session parameters; start fresh", ih.ClientID)
	}
	if ck.Round != ih.ResumeRound && ck.Round != ih.ResumeRound+1 {
		return nil, nil, fmt.Errorf("wire: checkpoint for identity %q is settled through round %d; cannot resume after round %d", ih.ClientID, ck.Round, ih.ResumeRound)
	}
	seller, err := core.RestoreEstimatorSeller(s.Catalog, ck)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: restore checkpoint for identity %q: %w; start fresh", ih.ClientID, err)
	}
	return seller, ck, nil
}

// Serve runs the admitted imperfect-information session over an
// established codec: the server plays the §3.5 estimation-based data party
// (core.EstimatorSeller), training its bundle estimator online from the
// realized gains the client settles with and acknowledging every
// settlement with the estimator's pre-update MSE — the feedback loop that
// keeps a networked ImperfectResult bit-identical to an in-process one. A
// resumed session confirms its round in the Hello. It releases the
// seller's estimator on return, so a session is served once.
func (p *ImperfectSession) Serve(c Codec, hello *Hello) (*SessionSummary, error) {
	defer p.a.seller.Release()
	if p.resumed > 0 {
		resumed := *hello
		resumed.Resumed = p.resumed
		hello = &resumed
	}
	return p.s.serve(link{c}, hello, p.a, p.resumed+1)
}

// answerer is the data party's per-session quoting brain: the stateless
// catalog policy for the perfect regime, the online-learning estimator
// seller for the imperfect one. The serve loop owns framing, walk-aways,
// round caps, payments, and hooks; the answerer owns bundle selection and
// whatever it learns from settlements.
type answerer interface {
	answer(round int, q core.QuotedPrice, u float64) core.SellerOffer
	// settled absorbs a realized round; an acked ack is sent back to the
	// client before the session advances.
	settled(round int, rec core.RoundRecord, d core.SettleDecision) (ack Ack, acked bool, err error)
}

// catalogAnswerer is the perfect-information data party: the strategic
// bundle policy over the true catalog gains, nothing to learn, no acks.
type catalogAnswerer struct{ s *DataServer }

func (a catalogAnswerer) answer(round int, q core.QuotedPrice, u float64) core.SellerOffer {
	return core.AnswerQuote(a.s.Catalog, q, u, a.s.EpsData, a.s.DataCost, round, a.s.EpsDataC)
}

func (a catalogAnswerer) settled(int, core.RoundRecord, core.SettleDecision) (Ack, bool, error) {
	return Ack{}, false, nil
}

// estimatorAnswerer adapts core.EstimatorSeller to the serve loop: every
// settlement trains the estimator and is acknowledged with its pre-update
// MSE. Settlement gains must be finite — a NaN or Inf would silently
// poison the estimator, so it fails the session instead.
type estimatorAnswerer struct {
	seller *core.EstimatorSeller
	// save, when non-nil, persists the seller's frozen state after every
	// settled round, before the ack goes out — so the durable state is never
	// behind what the client has been acknowledged.
	save func(*core.SellerCheckpoint)
	// replayRound > 0 marks a resume whose server checkpoint is one settled
	// round ahead of the client (the ack died with the connection): that
	// round's offer and MSE are re-answered verbatim from the checkpoint,
	// with no training and no rng draws.
	replayRound int
	replayOffer core.SellerOffer
	replayMSE   float64
}

func (a *estimatorAnswerer) answer(round int, q core.QuotedPrice, _ float64) core.SellerOffer {
	if a.replayRound > 0 && round == a.replayRound {
		return a.replayOffer
	}
	so, _ := a.seller.Offer(round, q) // the in-process seller cannot fail
	return so
}

func (a *estimatorAnswerer) settled(round int, rec core.RoundRecord, d core.SettleDecision) (Ack, bool, error) {
	if a.replayRound > 0 && round == a.replayRound {
		// Already absorbed before the crash: acknowledge idempotently.
		return Ack{Round: round, DataMSE: a.replayMSE}, true, nil
	}
	if math.IsNaN(rec.Gain) || math.IsInf(rec.Gain, 0) {
		return Ack{}, false, fmt.Errorf("wire: round %d settled with non-finite realized gain %v", round, rec.Gain)
	}
	if err := a.seller.Settle(round, rec, d); err != nil {
		return Ack{}, false, err
	}
	if a.save != nil {
		if ck, err := a.seller.Snapshot(); err == nil {
			a.save(ck)
		}
	}
	return Ack{Round: round, DataMSE: a.seller.LastMSE()}, true, nil
}

// serve runs one bargaining session over an established link with the
// given answerer — the single server-side loop both information regimes
// share. start is the first round number served: 1 on fresh sessions, the
// resumed round when resuming (where the very first exchange may already
// be a walk-away Settle).
func (s *DataServer) serve(l link, hello *Hello, a answerer, start int) (*SessionSummary, error) {
	// Send scratch: the codec does not retain its argument past Send, so
	// one envelope, Offer and Ack serve the Hello and every round of the
	// session, allocated with the summary.
	sc := &struct {
		sum   SessionSummary
		env   Envelope
		offer Offer
		ack   Ack
	}{sum: SessionSummary{BundleID: -1}}
	env, offer, ack, sum := &sc.env, &sc.offer, &sc.ack, &sc.sum
	*env = Envelope{Kind: KindHello, Hello: hello}
	if err := l.send(env); err != nil {
		return nil, err
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1000
	}

	// The buyer's target gain is constant for a session (clients send it
	// verbatim; an Eq. 5 quote's knee equals it when they do not), so the
	// closest-bundle hint is computed once and refreshed only if the
	// announced target actually moves.
	lastTarget, targetBundle := -1.0, -1
	for quotes := start; ; quotes++ {
		// A fresh session must open with a quote; from the second exchange
		// on — and from the first on a resume, whose buyer may have nothing
		// left to ask — a Settle in place of a Quote is a legal walk-away
		// notice.
		alt := KindQuote
		if quotes > 1 || start > 1 {
			alt = KindSettle
		}
		e, err := l.recvEither(KindQuote, alt)
		if err != nil {
			return sum, err
		}
		if e.Kind == KindSettle {
			// A Settle in place of a Quote is the buyer's walk-away notice
			// (Case 1 / pool exhaustion): the session ends unclosed but
			// clean.
			return sum, nil
		}
		if quotes > maxRounds {
			return sum, fmt.Errorf("wire: session exceeded %d rounds", maxRounds)
		}
		q := core.QuotedPrice{Rate: e.Quote.Rate, Base: e.Quote.Base, High: e.Quote.High}
		if err := q.Validate(); err != nil {
			return sum, fmt.Errorf("wire: client sent invalid quote: %w", err)
		}

		so := a.answer(quotes, q, e.Quote.U)
		if so.TargetBundleID < 0 {
			// The catalog policy leaves the hint to the transport: derive
			// it from the announced target (a quote without the exact ΔG*
			// falls back to its knee, which equals it under Eq. 5). The estimator seller computes its own hint, which must
			// flow through untouched to preserve bit-identity.
			target := e.Quote.Target
			if target <= 0 {
				target = q.TargetGain()
			}
			if target != lastTarget {
				lastTarget, targetBundle = target, s.Catalog.TargetBundle(target)
			}
			so.TargetBundleID = targetBundle
		}
		*offer = Offer{
			BundleID: so.BundleID, Features: so.Features,
			Accept: so.Accept, Fail: so.Fail, Reason: so.Reason,
			TargetBundleID: so.TargetBundleID,
		}
		*env = Envelope{Kind: KindOffer, Offer: offer}
		if err := l.send(env); err != nil {
			return sum, err
		}
		if offer.Fail {
			// Case 1 territory: the client either escalates with another
			// quote or walks away with a Settle; the loop top handles both.
			continue
		}
		sum.Rounds++
		sum.BundleID = offer.BundleID

		se, err := l.recv(KindSettle)
		if err != nil {
			return sum, err
		}
		// An accept, or the data party's Case-2 commitment not walked away from.
		closes := se.Settle.Decision == DecisionAccept ||
			(offer.Accept && se.Settle.Decision != DecisionFail)
		pay, err := s.settledPayment(hello, q, se.Settle, closes)
		if err != nil {
			return sum, err
		}
		rec := core.RoundRecord{
			Round: quotes, Price: q, BundleID: offer.BundleID,
			Gain: se.Settle.Gain, Payment: pay,
		}
		var acked bool
		*ack, acked, err = a.settled(quotes, rec, coreDecision(se.Settle.Decision))
		if err != nil {
			return sum, err
		}
		if acked {
			*env = Envelope{Kind: KindAck, Ack: ack}
			if err := l.send(env); err != nil {
				return sum, err
			}
		}
		if closes {
			sum.Closed, sum.Payment = true, pay
			return sum, nil
		}
		if se.Settle.Decision == DecisionFail {
			return sum, nil // Case 4
		}
	}
}

// settledPayment extracts the payment from a settlement message. A secure
// session is paid only on the round that closes, so only that ciphertext is
// required and opened; other rounds settle at 0. The receiver blinds it
// with powers of its own primes (four half-width mulmods, no modexp) before
// the CRT decryption, so the exponentiation operands are unlinked from the
// wire bytes; the plaintext is identical. The session decrypts under the key
// generation its hello announced, so settlements survive a concurrent
// RotateKey.
func (s *DataServer) settledPayment(hello *Hello, q core.QuotedPrice, st *Settle, closes bool) (float64, error) {
	if s.keys == nil {
		return q.Payment(st.Gain), nil
	}
	if !closes {
		return 0, nil
	}
	if len(st.EncPayment) == 0 {
		return 0, fmt.Errorf("wire: secure session settled without ciphertext")
	}
	recv, err := s.keys.Receiver(hello.PubN)
	if err != nil {
		return 0, err
	}
	return recv.Open(st.EncPayment)
}
