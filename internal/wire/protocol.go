// Package wire runs the bargaining market as an actual two-endpoint network
// protocol: the data party serves its catalog behind a listener, the task
// party connects and drives the negotiation. It is the deployment shape the
// paper's production setting implies — two organisations, one connection —
// with the same strategies and termination cases as the in-process engine,
// plus the §3.6 option of settling payments under Paillier encryption so
// the realized ΔG never crosses the wire in clear.
//
// Protocol (length-prefixed envelope frames over one connection, every
// session a stream of it):
//
//	connection opening:
//	  client → server  "VFLM/6 <bin|gob> mux\n"   (the only accepted preamble)
//	  client → server  ClientHello{version, market, listOnly | statsOnly}
//	  server → client  Hello{market, markets, modes, listing, public key}
//	                   | Stats | Error | Busy | Redirect
//	each session (SID chosen by the client, stamped on every frame):
//	  client → server  Open{ClientHello{market, mode, imperfect knobs}}
//	  server → client  Hello | Error | Busy | Redirect
//	  loop (either information regime):
//	    client → server  Quote{p, P0, Ph}
//	    server → client  Offer{bundle} | Offer{Fail}      (Cases 1–3 / I–II)
//	    client → server  Settle{ΔG or Enc(payment), decision}  (Cases 4–6 / IV–VI)
//	    server → client  Ack{g's pre-update MSE}          (imperfect mode only)
//	                     (a Settle sent instead of a Quote is a clean walk-away)
//	  client → server  Cancel                             (abandons the session)
//
// The handshake advertises the information regime: ClientHello.Mode selects
// perfect (closed-form Eq. 5 pricing against the catalog policy) or
// imperfect (§3.5 estimation-based bargaining, the server playing
// core.EstimatorSeller and training on the realized gains each settlement
// feeds back). Imperfect sessions require cleartext settlement — the
// realized ΔG is the data party's training signal — so they are refused on
// Paillier-settling servers.
//
// Both ends of a connection run on one mux core (mux.go): one locked write
// path, one read baton passed between the sessions' receives (the holder
// routes other sessions' frames by SID into bounded per-session inboxes),
// one session receive, and one opener each for connections and sessions.
// A client MuxSession and a server MuxStream are the same session type;
// they differ only in values (a ctx, and whether a session shares its
// connection's fate). A failed write fails the connection on either end.
// The write deadline is armed only when bytes reach the connection (a
// flush with bytes buffered, or a send that overflows the buffer), and a
// reading session re-arms the connection's read deadline only when the
// armed one has passed, is later than its own, or is missing.
//
// Envelope lifetime: every session owns one receive box per per-round
// kind (Quote, Offer, Settle, Ack), and the binary codec decodes such a
// frame into its session's box unless that box is still queued or held.
// An envelope a session's Recv returns is valid until the session's next
// Recv; callers copy whatever they keep longer. Every other kind, and
// every framed-gob frame, is decoded onto the heap.
//
// Envelopes travel in the binary layout of envelope.go (CodecBinary), which
// non-Go task parties implement from the README's byte table; framed gob
// (CodecGob) is the one alternative a preamble may name. Clients pipeline
// their rounds: Settle(n) and Quote(n+1) leave in one write, and the
// settlement Ack is read together with the next Offer.
//
// Secure key handling is pipelined: the server's Paillier key pair is a
// secure.RotatingKey (generation runs off the registration path;
// the first Hello of a market blocks until it lands), clients rebuild the
// public key from Hello.PubN via secure.NewPublicKey and encrypt settlements
// with precomputed r^n randomizers from a secure.NoiseSource pool (one
// mulmod in steady state), and the server blinds each ciphertext with
// powers of its own primes before the CRT decryption (four half-width
// mulmods; see secure.DataReceiver). Only the closing round is sealed and
// opened.
package wire

import (
	"strconv"

	"repro/internal/core"
)

// ProtocolVersion is the wire protocol version, carried in ClientHello and
// echoed in Hello; the preamble's "VFLM/6" names the same version.
const ProtocolVersion = 6

// Information regimes named in the handshake.
const (
	// ModePerfect is bargaining under perfect performance information
	// (Algorithm 1; the default when ClientHello.Mode is empty).
	ModePerfect = "perfect"
	// ModeImperfect is the §3.5 estimation-based bargaining: exploration
	// rounds, online-learned ΔG estimators on both endpoints, experience
	// replay.
	ModeImperfect = "imperfect"
)

// Kind discriminates protocol envelopes.
type Kind int

// Protocol message kinds.
const (
	KindHello Kind = iota + 1
	KindQuote
	KindOffer
	KindSettle
	KindClientHello
	KindError
	KindAck
	// KindBusy is the admission-control rejection: the server's session
	// pool is saturated and the connection is refused rather than queued.
	// Clients surface it as ErrServerBusy and may retry with backoff.
	KindBusy
	// KindRedirect is the shard-routing answer: the server does not own
	// the requested market, and instead of a terminal error it names the
	// shard that does (plus the shard-map epoch of that knowledge). Clients
	// surface it as a *RedirectError and transparently redial the owner.
	KindRedirect
	// KindStats is the admin metrics envelope: a server answers a
	// StatsOnly hello with its counter snapshot — server totals plus the
	// per-market load the fabric rebalancer plans transfers from — and
	// closes.
	KindStats
	// KindOpen is the mux session opener: a ClientHello carried inside
	// the multiplexed stream, stamped with the fresh session ID every frame
	// of the session will carry. The server answers on the same SID with a
	// Hello (or a typed refusal: error, busy, redirect) and the session then
	// speaks the ordinary envelope sequence.
	KindOpen
	// KindCancel is the mux session teardown: the client abandons one
	// session of a multiplexed connection without touching its siblings.
	// Either side may also receive it for an already-finished SID, which is
	// ignored.
	KindCancel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindQuote:
		return "quote"
	case KindOffer:
		return "offer"
	case KindSettle:
		return "settle"
	case KindClientHello:
		return "client-hello"
	case KindError:
		return "error"
	case KindAck:
		return "ack"
	case KindBusy:
		return "busy"
	case KindRedirect:
		return "redirect"
	case KindStats:
		return "stats"
	case KindOpen:
		return "open"
	case KindCancel:
		return "cancel"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// BundleInfo is the public listing entry of one bundle: its identity and
// feature composition, never the reserved price or the data itself.
type BundleInfo struct {
	ID       int
	Features []int
}

// ClientHello opens a connection (the connection-level hello) or a session
// (inside KindOpen): the task party names the protocol version it speaks,
// the market it wants to bargain in, and the information regime it wants to
// play.
type ClientHello struct {
	// Version is the client's protocol version (ProtocolVersion).
	Version int
	// Market selects the engine on a multi-market server; "" picks the
	// server's default (first registered) market.
	Market string
	// Mode names the information regime (ModePerfect, ModeImperfect); ""
	// means perfect.
	Mode string
	// Imperfect carries the imperfect-regime parameters; required when Mode
	// is ModeImperfect, ignored otherwise.
	Imperfect *ImperfectHello
	// ListOnly asks for the Hello (markets, listing, key) without opening a
	// bargaining session; the server answers and closes.
	ListOnly bool
	// StatsOnly asks for the server's metrics snapshot (a KindStats
	// envelope) instead of a session; the server answers and closes. It is
	// the admin read the fabric rebalancer consumes — no Hello, no listing,
	// no market resolution.
	StatsOnly bool
}

// ImperfectHello is the imperfect-regime half of the handshake: the
// mutually known §3.5 parameters the data party needs to construct the
// exact estimation-based seller an in-process run would (see the imperfect
// seed convention in core). The task party's candidate-pool size stays
// private and never crosses the wire.
type ImperfectHello struct {
	// Seed is the session seed; the server derives its bundle-estimator
	// seed and exploration/replay streams from it.
	Seed uint64
	// Target is the task party's target gain ΔG* (scales the server's
	// estimator; also carried per quote).
	Target float64
	// ExplorationRounds is N of Case VII; <= 0 means the core default.
	ExplorationRounds int
	// ReplaySteps is the per-round experience-replay budget; <= 0 means
	// the core default.
	ReplaySteps int
	// ClientID is a client-chosen stable identity — filename-safe,
	// [A-Za-z0-9_-], at most 64 bytes — under which the server checkpoints
	// this session's estimator state. "" disables checkpointing.
	ClientID string
	// ResumeRound asks the server to resume this identity's
	// checkpointed session from after round ResumeRound instead of starting
	// fresh. 0 starts fresh; > 0 requires ClientID. The server refuses
	// (error envelope) when it has no matching checkpoint.
	ResumeRound int
}

// Hello announces a connection or a session: the data party publishes its
// listing and, when the session settles securely, its Paillier public key,
// and names the resolved market and every market it serves.
type Hello struct {
	// Version is the server's protocol version.
	Version int
	// Market is the resolved market name.
	Market string
	// Markets lists every market the server serves.
	Markets []string
	// Modes lists the information regimes the server serves (secure
	// servers omit ModeImperfect, which needs cleartext settlement).
	Modes   []string
	Bundles []BundleInfo
	Secure  bool
	PubN    []byte // Paillier modulus when Secure
	// Resumed confirms a granted resume: the round the server's
	// restored state is settled through (echoing ImperfectHello.ResumeRound).
	// 0 on fresh sessions.
	Resumed int
}

// Quote is the task party's round offer. U is the task party's utility
// rate, which §3.3 of the paper assumes is mutually known; the data party
// needs it for its Case 4-aware offer filter.
type Quote struct {
	Round            int
	Rate, Base, High float64
	U                float64
	// Target is the task party's exact target gain ΔG*; a client that
	// leaves it 0 lets the server derive it from the quote's knee.
	Target float64
}

// Offer is the data party's response.
type Offer struct {
	BundleID int
	Features []int
	// Accept is the data party's Case 2 close: it commits to this bundle at
	// the quoted price.
	Accept bool
	// Fail is the Case 1 walkout: nothing satisfies the quote.
	Fail   bool
	Reason string
	// TargetBundleID is the catalog bundle closest to the buyer's target
	// gain — the hint that fills core.Result.TargetBundleID on the client.
	TargetBundleID int
}

// Settle reports the VFL course's outcome back to the data party. In clear
// mode it carries the realized ΔG; in secure mode the encrypted Eq. 2
// payment, on the closing round only (the only one paid; a server never
// opens another). A Settle sent in place of a Quote is a clean walk-away
// notice (the buyer leaves without a settlement).
type Settle struct {
	Round      int
	Decision   core.SettleDecision
	Gain       float64 // clear mode only
	EncPayment []byte  // secure mode, closing round only: Paillier ciphertext of the payment
}

// Ack is the server's answer to a settlement in imperfect mode: it
// confirms the realized-gain feedback was absorbed and carries the bundle
// estimator's pre-update squared error for the round — the data-party MSE
// series of Figure 4, which is how a networked ImperfectResult stays
// bit-identical to an in-process one.
type Ack struct {
	Round int
	// DataMSE is g's pre-update squared error on the round's realized
	// gain, in normalized gain units.
	DataMSE float64
}

// ErrorMsg is a server-side rejection (unknown market, unsupported
// version); the connection closes after it.
type ErrorMsg struct {
	Msg string
}

// Redirect is the shard-routing payload: the answering server does not
// own Market, and Addr is where it lives per the shard map at Epoch. The
// connection closes after it; the client redials Addr with the same hello
// (including any resume state — which is how an in-flight imperfect
// session follows its market across a live migration).
type Redirect struct {
	// Market is the requested market the answer is about.
	Market string
	// Addr is the owning shard's dialable address.
	Addr string
	// Epoch is the shard-map version this answer was derived from; a client
	// holding a newer epoch may treat the redirect as stale.
	Epoch uint64
}

// ServerStats is a point-in-time snapshot of a server's counters, and the
// server-totals half of the stats envelope. The field order is the binary
// envelope layout's.
type ServerStats struct {
	// Accepted counts accepted connections.
	Accepted uint64
	// Sessions counts bargaining sessions that ran (handshake + market
	// resolution succeeded, listing-only connections excluded).
	Sessions uint64
	// Closed counts sessions that ended in a settled transaction.
	Closed uint64
	// Failed counts sessions that ended with a protocol or transport error.
	Failed uint64
	// Rejected counts connections turned away before bargaining: malformed
	// handshakes, unsupported versions, unknown markets.
	Rejected uint64
	// Busy counts connections refused by admission control (every
	// handshake slot was taken): load, not in Rejected.
	Busy uint64
	// Redirected counts connections answered with a redirect to another
	// shard (directory-attached servers only); not in Rejected.
	Redirected uint64
	// Evicted counts sessions a migration (Unregister) cut mid-bargain so
	// their clients re-dial the new owner: choreography, not in Failed.
	Evicted uint64
	// Dropped counts sessions that ended on a transport fault (a reset, a
	// torn connection), which identified clients resume. A peer timeout
	// counts in Watchdog instead. Not in Failed, which is kept for protocol
	// violations and engine errors.
	Dropped uint64
	// Watchdog counts sessions that ended on a peer timeout
	// (ErrPeerTimeout): no envelope moved either way within the IO
	// timeout, so the stream's receive timer or a write deadline fired.
	// Disjoint from Dropped and Failed.
	Watchdog uint64
	// Quarantined counts corrupt snapshots the durable state renamed aside
	// (.corrupt) at load and treated as cold misses.
	Quarantined uint64
	// Active is the number of sessions being served right now.
	Active int64
}

// MarketStats is a point-in-time snapshot of one registered market, and
// its slice of the stats envelope: session load split by information
// regime plus the valuation-oracle counters — the VFL training load an
// operator pays for, and the signal the fabric rebalancer plans transfers
// from. The oracle counters are 0 for synthetic-gain engines, which never
// train. The field order is the binary envelope layout's.
type MarketStats struct {
	// Sessions counts bargaining sessions served in this market (both
	// regimes; listing-only connections excluded).
	Sessions uint64
	// ImperfectSessions is the subset of Sessions run under the imperfect
	// information regime.
	ImperfectSessions uint64
	// ResumedSessions counts imperfect sessions granted a resume: a
	// reconnecting client's identity had a live checkpoint.
	ResumedSessions uint64
	// ActiveSessions is the number of this market's sessions being served
	// right now.
	ActiveSessions int64
	// OracleTrainings counts VFL courses the gain oracle trained (misses).
	OracleTrainings int
	// OracleCachedGains counts the bundle valuations the oracle memoized.
	OracleCachedGains int
	// OracleHits counts valuations served straight from the memo.
	OracleHits int
	// OracleCoalesced counts callers the oracle's singleflight folded into
	// an already-running training of the same bundle.
	OracleCoalesced int
	// OracleRestored counts memoized valuations preloaded from the durable
	// store (0 without a bound state).
	OracleRestored int
	// CheckpointedClients counts the client identities whose estimator
	// checkpoints the market holds in memory — sessions a migration must
	// carry to the next owner (0 without a bound state).
	CheckpointedClients int
}

// StatsReport is the admin metrics snapshot a server answers a
// StatsOnly hello with.
type StatsReport struct {
	Server  ServerStats
	Markets map[string]MarketStats
	// Epoch is the shard-map epoch the server routes by, when it is
	// directory-attached; 0 on standalone servers.
	Epoch uint64
}

// Envelope is the single wire frame.
type Envelope struct {
	Kind Kind
	// SID is the session ID: every frame of a session carries the ID its
	// KindOpen allocated, and the reader on either end routes by it.
	// 0 on the connection-level hello exchange.
	SID      uint64
	Hello    *Hello
	Quote    *Quote
	Offer    *Offer
	Settle   *Settle
	Client   *ClientHello
	Err      *ErrorMsg
	Ack      *Ack
	Redirect *Redirect
	Stats    *StatsReport
}
