package wire

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"net"
	"sync"
	"time"

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
	// Secure enables Paillier settlement: the server publishes the public
	// key in Hello and refuses cleartext settlements. The key pair comes
	// from the key provider (NewDataServer starts an asynchronous
	// generation so construction never blocks on prime search; see
	// NewDataServerWithKeys for eager or imported keys).
	Secure bool
	// NoisePool sizes the per-server pool of precomputed decryption
	// blinding factors (see secure.NoiseSource); concurrent secure
	// sessions share it. <= 0 means secure.DefaultNoisePool. Set before
	// the first session; PrimeNoise warms it.
	NoisePool int
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
	// IOTimeout bounds every read and write on connections handled by
	// ServeConn, so a stalled or vanished client ends the session with an
	// ErrPeerTimeout-wrapped error instead of hanging it forever. 0 means
	// no deadline (callers serving pre-wrapped connections through
	// ServeCodec apply their own).
	IOTimeout time.Duration
	// DataCost and EpsDataC enable the Eq. 6 cost-aware acceptance (Case 3)
	// on the server, mirroring SessionConfig.DataCost/EpsDataC in-process.
	DataCost core.CostModel
	EpsDataC float64
	// OnRound, when non-nil, observes every realized round from the
	// server's side: the quote, the offered bundle, and — in clear
	// settlement mode — the reported gain and payment (zero under Paillier;
	// that is the point). Sessions served concurrently share the hook, so
	// it must be safe for concurrent use.
	OnRound func(rec core.RoundRecord)
	// Checkpoints, when non-nil, makes imperfect sessions durable: after
	// every settled round the seller's frozen state is saved under the
	// client identity of the v4 hello, and a ResumeRound hello restores it
	// instead of starting fresh. Sessions share the registry, so it must be
	// safe for concurrent use. vflmarket.Server backs it with the snapshot
	// store.
	Checkpoints SellerCheckpoints

	keys secure.KeyProvider

	// secCur/secOld are the decryption machinery of the current and the
	// previous key generation: settled ciphertexts are blinded with pooled
	// factors before CRT decryption (side-channel hardening at mulmod
	// cost), and a session resolves the state whose modulus it captured at
	// hello time — which is how RotateKey drains in-flight sessions
	// gracefully. secMu orders the lazy build and rotation against Close —
	// a pool first needed after Close is built workerless so nothing leaks.
	secMu     sync.Mutex
	secClosed bool
	secCur    *secureState
	secErr    error
	secOld    *secureState

	listingOnce sync.Once
	listing     []BundleInfo
}

// SellerCheckpoints is the durable registry imperfect sessions checkpoint
// into, keyed by the client identity of the v4 hello. Implementations must
// be safe for concurrent use; Save takes ownership of the checkpoint.
type SellerCheckpoints interface {
	Save(clientID string, ck *core.SellerCheckpoint)
	Load(clientID string) (*core.SellerCheckpoint, bool)
}

// secureState is one key generation's settlement machinery: the CRT
// decryptor and its blinding pool.
type secureState struct {
	recv  *secure.DataReceiver
	noise *secure.NoiseSource
}

// Default server-side caps on the client-supplied work factors of the
// imperfect handshake. Both sit well above the paper's settings (N = 100,
// 4 replay steps) while bounding what one hello can make the server compute.
const (
	DefaultMaxExplorationRounds = 1000
	DefaultMaxReplaySteps       = 64
)

// ValidateImperfectHello checks the hello's work factors against the
// server's caps, returning the refusal error for an abusive ask. The caps
// apply to the values the session will actually run with — a zero hello
// field means the core default (100 exploration rounds, 4 replay steps),
// and that resolved value is what must clear the cap, so a server capped
// below the defaults cannot be bypassed by asking for "default". The serve
// path runs this before any session state is built and sends the error
// back as a refusal envelope.
func (s *DataServer) ValidateImperfectHello(ih *ImperfectHello) error {
	if ih == nil {
		return fmt.Errorf("wire: imperfect session opened without parameters")
	}
	eff := core.ImperfectParams{
		ExplorationRounds: ih.ExplorationRounds,
		ReplaySteps:       ih.ReplaySteps,
	}.WithDefaults()
	maxN := s.MaxExplorationRounds
	if maxN <= 0 {
		maxN = DefaultMaxExplorationRounds
	}
	if eff.ExplorationRounds > maxN {
		return fmt.Errorf("wire: refused: %d exploration rounds exceed this server's cap of %d", eff.ExplorationRounds, maxN)
	}
	maxReplay := s.MaxReplaySteps
	if maxReplay <= 0 {
		maxReplay = DefaultMaxReplaySteps
	}
	if eff.ReplaySteps > maxReplay {
		return fmt.Errorf("wire: refused: %d replay steps per round exceed this server's cap of %d", eff.ReplaySteps, maxReplay)
	}
	if err := ValidateClientID(ih.ClientID); err != nil {
		return err
	}
	if ih.ResumeRound < 0 {
		return fmt.Errorf("wire: negative resume round %d", ih.ResumeRound)
	}
	if ih.ResumeRound > 0 && ih.ClientID == "" {
		return fmt.Errorf("wire: resuming a session requires a client identity")
	}
	return nil
}

// ValidateClientID checks a v4 client identity: empty (checkpointing off)
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

// NewDataServer builds a server over the catalog. keyBits sizes the
// Paillier primes when secureMode is on (256 is fine for tests and demos;
// production wants 1536+). The key size is validated here, but generation
// itself runs in the background: construction returns immediately and the
// first use of the key (a Hello or a settlement) blocks until it lands.
func NewDataServer(cat *core.Catalog, epsData float64, secureMode bool, keyBits int) (*DataServer, error) {
	if !secureMode {
		return &DataServer{Catalog: cat, EpsData: epsData}, nil
	}
	keys, err := secure.AsyncKey(rand.Reader, keyBits)
	if err != nil {
		return nil, err
	}
	return NewDataServerWithKeys(cat, epsData, keys), nil
}

// NewDataServerWithKeys builds a Paillier-settling server over the catalog
// with an explicit key provider — secure.StaticKey or secure.EagerKey for
// deterministic tests and imported keys, secure.AsyncKey (what
// NewDataServer uses) to keep prime search off the construction path.
func NewDataServerWithKeys(cat *core.Catalog, epsData float64, keys secure.KeyProvider) *DataServer {
	return &DataServer{Catalog: cat, EpsData: epsData, Secure: true, keys: keys}
}

// key resolves the server's key pair, blocking on an in-flight generation.
func (s *DataServer) key() (*secure.PrivateKey, error) {
	if s.keys == nil {
		return nil, fmt.Errorf("wire: secure server has no key provider")
	}
	return s.keys.Key()
}

// newSecureStateLocked builds one key generation's settlement machinery;
// callers hold secMu (the pool is built workerless after Close so nothing
// leaks).
func (s *DataServer) newSecureStateLocked(sk *secure.PrivateKey) *secureState {
	workers := 0
	if s.secClosed {
		workers = -1 // post-Close: a drawable-but-never-refilled shell
	}
	recv := secure.NewDataReceiver(sk)
	return &secureState{
		recv:  recv,
		noise: secure.NewNoiseSource(recv.PublicKey(), s.NoisePool, workers, rand.Reader),
	}
}

// current resolves the current key generation's settlement state, building
// it lazily once the key lands.
func (s *DataServer) current() (*secureState, error) {
	s.secMu.Lock()
	if s.secCur != nil || s.secErr != nil {
		cur, err := s.secCur, s.secErr
		s.secMu.Unlock()
		return cur, err
	}
	s.secMu.Unlock()
	sk, err := s.key() // may block on generation; never under secMu
	s.secMu.Lock()
	defer s.secMu.Unlock()
	if s.secCur != nil || s.secErr != nil { // raced build
		return s.secCur, s.secErr
	}
	if err != nil {
		s.secErr = err
		return nil, err
	}
	s.secCur = s.newSecureStateLocked(sk)
	return s.secCur, nil
}

// secureFor resolves the settlement state whose modulus the session
// captured at hello time: the current generation, or — after a RotateKey —
// the one retained previous generation. A modulus rotated further away
// fails the session; the client must reconnect under the announced key.
func (s *DataServer) secureFor(pubN []byte) (*secureState, error) {
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	if len(pubN) == 0 {
		return cur, nil // legacy v1 path: hello and settlement share a key
	}
	want := new(big.Int).SetBytes(pubN)
	if cur.recv.PublicKey().N.Cmp(want) == 0 {
		return cur, nil
	}
	s.secMu.Lock()
	old := s.secOld
	s.secMu.Unlock()
	if old != nil && old.recv.PublicKey().N.Cmp(want) == 0 {
		return old, nil
	}
	return nil, fmt.Errorf("wire: session key rotated away; reconnect under the current key")
}

// RotateKey rotates the server's Paillier key pair: the provider generates
// and persists a fresh pair (it must support rotation — secure.RotatingKey
// and PersistedKey do), new sessions are announced the fresh modulus in
// their Hello, and sessions opened under the previous key drain against its
// retained state. One prior generation is kept: rotating twice strands
// sessions of the first key, which then fail their settlements cleanly.
func (s *DataServer) RotateKey() (pubN []byte, err error) {
	if !s.Secure {
		return nil, fmt.Errorf("wire: cannot rotate keys on a cleartext server")
	}
	rot, ok := s.keys.(interface {
		Rotate() (*secure.PrivateKey, error)
	})
	if !ok {
		return nil, fmt.Errorf("wire: key provider %T does not support rotation", s.keys)
	}
	// Materialize the current generation first so draining sessions find it
	// in the old slot.
	cur, err := s.current()
	if err != nil {
		return nil, err
	}
	sk, err := rot.Rotate()
	if err != nil {
		return nil, err
	}
	s.secMu.Lock()
	evicted := s.secOld
	s.secOld = cur
	s.secCur = s.newSecureStateLocked(sk)
	s.secMu.Unlock()
	if evicted != nil {
		evicted.noise.Close()
	}
	return sk.N.Bytes(), nil
}

// PrimeNoise resolves the key (blocking on an asynchronous generation) and
// fills the blinding pool to capacity, so the first secure settlements hit
// a warm pool. Market frontends run it in the background at registration.
func (s *DataServer) PrimeNoise(ctx context.Context) error {
	if !s.Secure {
		return nil
	}
	sec, err := s.current()
	if err != nil {
		return err
	}
	return sec.noise.Prime(ctx)
}

// Close releases the server's background resources (the blinding pools'
// workers, across key generations). Serving after Close still works: pool
// draws fall back inline.
func (s *DataServer) Close() {
	s.secMu.Lock()
	s.secClosed = true
	cur, old := s.secCur, s.secOld
	s.secMu.Unlock()
	if cur != nil {
		cur.noise.Close()
	}
	if old != nil {
		old.noise.Close()
	}
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

// Hello builds the server's announcement: the public listing and, in
// secure mode, the Paillier public key. Callers serving the v2 protocol
// fill the Version/Market/Markets fields before sending. The listing is
// built once per server (the catalog is immutable) and shared across
// concurrent sessions; receivers must not mutate it. In secure mode Hello
// blocks until an in-flight key generation lands — the only error path.
func (s *DataServer) Hello() (*Hello, error) {
	s.listingOnce.Do(func() {
		s.listing = make([]BundleInfo, 0, s.Catalog.Len())
		for _, b := range s.Catalog.Bundles {
			s.listing = append(s.listing, BundleInfo{ID: b.ID, Features: b.Features})
		}
	})
	hello := &Hello{Secure: s.Secure, Bundles: s.listing}
	if s.Secure {
		sk, err := s.key()
		if err != nil {
			return nil, err
		}
		hello.PubN = sk.N.Bytes()
	}
	return hello, nil
}

// ServeConn runs one legacy (v1) bargaining session over the connection
// and returns its summary: gob framing, server-first Hello, no handshake.
// The caller owns the connection lifecycle. When IOTimeout is set, reads
// and writes that stall past it fail the session with an error wrapping
// ErrPeerTimeout.
func (s *DataServer) ServeConn(conn net.Conn) (*SessionSummary, error) {
	hello, err := s.Hello()
	if err != nil {
		return nil, err
	}
	return s.ServeCodec(newCodec(WithIOTimeout(conn, s.IOTimeout)).c, hello)
}

// ServeCodec runs one perfect-information bargaining session over an
// established codec: send the hello, then answer quotes until the session
// settles or a party walks away. It is the serving core shared by
// ServeConn and the multi-market Server frontend (which performs the
// handshake first).
func (s *DataServer) ServeCodec(c Codec, hello *Hello) (*SessionSummary, error) {
	return s.serve(link{c}, hello, catalogAnswerer{s}, 1)
}

// ServeImperfectCodec runs one imperfect-information session over an
// established codec: the server plays the §3.5 estimation-based data party
// (core.EstimatorSeller), training its bundle estimator online from the
// realized gains the client settles with and acknowledging every
// settlement with the estimator's pre-update MSE — the feedback loop that
// keeps a networked ImperfectResult bit-identical to an in-process one.
func (s *DataServer) ServeImperfectCodec(c Codec, hello *Hello, ih *ImperfectHello) (*SessionSummary, error) {
	if s.Secure {
		return nil, fmt.Errorf("wire: the imperfect regime trains on realized gains and needs cleartext settlement; this server settles under Paillier")
	}
	// The handshake frontends (vflmarket.Server) send this refusal back as
	// an error envelope in place of the Hello before opening the session;
	// here it only guards direct callers.
	if err := s.ValidateImperfectHello(ih); err != nil {
		return nil, err
	}
	if !(ih.Target > 0) || math.IsInf(ih.Target, 0) {
		return nil, fmt.Errorf("wire: imperfect session needs a positive finite target gain, got %v", ih.Target)
	}
	cfg := s.sellerConfigFor(ih)

	a := &estimatorAnswerer{}
	start := 1
	if ih.ResumeRound > 0 {
		ck, err := s.resumeCheckpoint(ih, cfg)
		if err != nil {
			return nil, err
		}
		seller, err := core.RestoreEstimatorSeller(s.Catalog, ck)
		if err != nil {
			return nil, fmt.Errorf("wire: restore checkpoint for identity %q: %v", ih.ClientID, err)
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
		start = ih.ResumeRound + 1
		resumed := *hello
		resumed.Resumed = ih.ResumeRound
		hello = &resumed
	} else {
		a.seller = core.NewEstimatorSeller(s.Catalog, cfg)
	}
	if ih.ClientID != "" && s.Checkpoints != nil {
		id := ih.ClientID
		a.save = func(ck *core.SellerCheckpoint) { s.Checkpoints.Save(id, ck) }
	}
	return s.serve(link{c}, hello, a, start)
}

// sellerConfigFor derives the estimator-seller configuration a hello pins:
// the checkpoint identity a resume must match.
func (s *DataServer) sellerConfigFor(ih *ImperfectHello) core.EstimatorSellerConfig {
	eps := s.EpsImperfect
	if eps == 0 {
		eps = s.EpsData
	}
	return core.EstimatorSellerConfig{
		Seed:    ih.Seed,
		Target:  ih.Target,
		EpsData: eps,
		Params: core.ImperfectParams{
			ExplorationRounds: ih.ExplorationRounds,
			ReplaySteps:       ih.ReplaySteps,
		},
	}
}

// resumeCheckpoint loads and validates the checkpoint a resume hello names.
// The server checkpoints after its settlement, the client after the ack
// lands, so a crash between the two leaves the server exactly one round
// ahead: R and R+1 are the only resumable offsets.
func (s *DataServer) resumeCheckpoint(ih *ImperfectHello, cfg core.EstimatorSellerConfig) (*core.SellerCheckpoint, error) {
	if s.Checkpoints == nil {
		return nil, fmt.Errorf("wire: this server does not checkpoint sessions; cannot resume")
	}
	ck, ok := s.Checkpoints.Load(ih.ClientID)
	if !ok {
		return nil, fmt.Errorf("wire: no checkpoint for identity %q; start fresh", ih.ClientID)
	}
	if !ck.Matches(cfg) {
		return nil, fmt.Errorf("wire: checkpoint for identity %q was taken under different session parameters; start fresh", ih.ClientID)
	}
	if ck.Round != ih.ResumeRound && ck.Round != ih.ResumeRound+1 {
		return nil, fmt.Errorf("wire: checkpoint for identity %q is settled through round %d; cannot resume after round %d", ih.ClientID, ck.Round, ih.ResumeRound)
	}
	return ck, nil
}

// CheckResume reports whether the resume a hello asks for can be granted,
// without building any session state — what handshake frontends run so a
// doomed resume is refused with an error envelope in place of the Hello
// instead of a dropped connection. A hello that does not ask for a resume
// passes trivially.
func (s *DataServer) CheckResume(ih *ImperfectHello) error {
	if ih == nil || ih.ResumeRound <= 0 {
		return nil
	}
	_, err := s.resumeCheckpoint(ih, s.sellerConfigFor(ih))
	return err
}

// answerer is the data party's per-session quoting brain: the stateless
// catalog policy for the perfect regime, the online-learning estimator
// seller for the imperfect one. The serve loop owns framing, walk-aways,
// round caps, payments, and hooks; the answerer owns bundle selection and
// whatever it learns from settlements.
type answerer interface {
	answer(round int, q core.QuotedPrice, u float64) core.SellerOffer
	// settled absorbs a realized round; ack (when non-nil) is sent back to
	// the client before the session advances.
	settled(round int, rec core.RoundRecord, d core.SettleDecision) (ack *Ack, err error)
}

// catalogAnswerer is the perfect-information data party: the strategic
// bundle policy over the true catalog gains, nothing to learn, no acks.
type catalogAnswerer struct{ s *DataServer }

func (a catalogAnswerer) answer(round int, q core.QuotedPrice, u float64) core.SellerOffer {
	return core.AnswerQuote(a.s.Catalog, q, u, a.s.EpsData, a.s.DataCost, round, a.s.EpsDataC)
}

func (a catalogAnswerer) settled(int, core.RoundRecord, core.SettleDecision) (*Ack, error) {
	return nil, nil
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

func (a *estimatorAnswerer) settled(round int, rec core.RoundRecord, d core.SettleDecision) (*Ack, error) {
	if a.replayRound > 0 && round == a.replayRound {
		// Already absorbed before the crash: acknowledge idempotently.
		return &Ack{Round: round, DataMSE: a.replayMSE}, nil
	}
	if math.IsNaN(rec.Gain) || math.IsInf(rec.Gain, 0) {
		return nil, fmt.Errorf("wire: round %d settled with non-finite realized gain %v", round, rec.Gain)
	}
	if err := a.seller.Settle(round, rec, d); err != nil {
		return nil, err
	}
	if a.save != nil {
		if ck, err := a.seller.Snapshot(); err == nil {
			a.save(ck)
		}
	}
	return &Ack{Round: round, DataMSE: a.seller.LastMSE()}, nil
}

// serve runs one bargaining session over an established link with the
// given answerer — the single server-side loop both information regimes
// share. start is the first round number served: 1 on fresh sessions, the
// resumed round on v4 resumes (where the very first exchange may already be
// a walk-away Settle).
func (s *DataServer) serve(l link, hello *Hello, a answerer, start int) (*SessionSummary, error) {
	if err := l.send(&Envelope{Kind: KindHello, Hello: hello}); err != nil {
		return nil, err
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1000
	}

	sum := &SessionSummary{BundleID: -1}
	// Per-round send scratch: the codec does not retain its argument past
	// Send, so one Offer and one envelope serve every round of the session.
	var offer Offer
	var oenv Envelope
	// The buyer's target gain is constant for a session (v2+ sends it
	// verbatim; a legacy quote's knee equals it under Eq. 5), so the
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
			// it from the announced target (legacy clients do not send the
			// exact ΔG*, but the knee of an Eq. 5-conforming quote equals
			// it). The estimator seller computes its own hint, which must
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
		offer = Offer{
			BundleID: so.BundleID, Features: so.Features,
			Accept: so.Accept, Fail: so.Fail, Reason: so.Reason,
			TargetBundleID: so.TargetBundleID,
		}
		oenv = Envelope{Kind: KindOffer, Offer: &offer}
		if err := l.send(&oenv); err != nil {
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
		pay, err := s.settledPayment(hello, q, se.Settle)
		if err != nil {
			return sum, err
		}
		rec := core.RoundRecord{
			Round: quotes, Price: q, BundleID: offer.BundleID,
			Gain: se.Settle.Gain, Payment: pay,
		}
		if s.OnRound != nil {
			s.OnRound(rec)
		}
		ack, aerr := a.settled(quotes, rec, coreDecision(se.Settle.Decision))
		if aerr != nil {
			return sum, aerr
		}
		if ack != nil {
			if err := l.send(&Envelope{Kind: KindAck, Ack: ack}); err != nil {
				return sum, err
			}
		}
		switch se.Settle.Decision {
		case DecisionAccept:
			sum.Closed = true
			sum.Payment = pay
			return sum, nil
		case DecisionFail:
			return sum, nil // Case 4
		}
		if offer.Accept {
			// Case 2: the data party already committed at this quote.
			sum.Closed = true
			sum.Payment = pay
			return sum, nil
		}
	}
}

// settledPayment extracts the payment from a settlement message. In secure
// mode the ciphertext is blinded with a pooled randomizer (when one is
// available — a mulmod, never a modexp) before the CRT decryption, so the
// exponentiation operand is unlinked from the wire bytes; the plaintext is
// identical either way. The session decrypts under the key generation its
// hello announced, so settlements survive a concurrent RotateKey.
func (s *DataServer) settledPayment(hello *Hello, q core.QuotedPrice, st *Settle) (float64, error) {
	if !s.Secure {
		return q.Payment(st.Gain), nil
	}
	if len(st.EncPayment) == 0 {
		return 0, fmt.Errorf("wire: secure session settled without ciphertext")
	}
	sec, err := s.secureFor(hello.PubN)
	if err != nil {
		return 0, err
	}
	ct := sec.noise.Blind(&secure.Ciphertext{C: new(big.Int).SetBytes(st.EncPayment)})
	return sec.recv.OpenPayment(&secure.GainReport{EncPayment: ct})
}
