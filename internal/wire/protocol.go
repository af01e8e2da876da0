// Package wire runs the bargaining market as an actual two-endpoint network
// protocol: the data party serves its catalog behind a listener, the task
// party connects and drives the negotiation. It is the deployment shape the
// paper's production setting implies — two organisations, one connection —
// with the same strategies and termination cases as the in-process engine,
// plus the §3.6 option of settling payments under Paillier encryption so
// the realized ΔG never crosses the wire in clear.
//
// Protocol (codec-framed envelopes over one connection):
//
//	v3 handshake:
//	  client → server  "VFLM/3 <codec>\n"      (ASCII preamble naming the codec)
//	  client → server  ClientHello{version, market, mode, imperfect knobs, listOnly}
//	server → client  Hello{market, modes, listing, optional public key} | Error
//	loop (either information regime):
//	  client → server  Quote{p, P0, Ph}
//	  server → client  Offer{bundle} | Offer{Fail}      (Cases 1–3 / I–II)
//	  client → server  Settle{ΔG or Enc(payment), decision}  (Cases 4–6 / IV–VI)
//	  server → client  Ack{g's pre-update MSE}          (imperfect mode only)
//	                   (a Settle sent instead of a Quote is a clean walk-away)
//
// The handshake advertises the information regime: ClientHello.Mode selects
// perfect (closed-form Eq. 5 pricing against the catalog policy) or
// imperfect (§3.5 estimation-based bargaining, the server playing
// core.EstimatorSeller and training on the realized gains each settlement
// feeds back). Imperfect sessions require cleartext settlement — the
// realized ΔG is the data party's training signal — so they are refused on
// Paillier-settling servers.
//
// The legacy endpoints (DataServer.ServeConn, TaskClient.Bargain) skip the
// handshake and speak gob with a server-first Hello, exactly as before; v2
// preambles are still accepted. The serial endpoints speak gob or JSON
// stream codecs; the v6 mux frames every envelope in the binary layout of
// envelope.go (CodecBinary), which non-Go task parties implement from the
// README's byte table.
//
// Secure key handling is pipelined: the server's Paillier key pair comes
// from a secure.KeyProvider (generation runs off the registration path;
// the first Hello of a market blocks until it lands), clients rebuild the
// public key from Hello.PubN via secure.NewPublicKey, and both endpoints
// draw precomputed r^n randomizers from secure.NoiseSource pools — the
// client to encrypt settlements (one mulmod per settled round in steady
// state), the server to blind ciphertexts before CRT decryption.
package wire

import (
	"strconv"

	"repro/internal/core"
)

// ProtocolVersion is the current wire protocol version, carried in
// ClientHello and echoed in Hello. v6 is the fast-wire revision: the "mux"
// handshake upgrades a connection to a multiplexed session fabric
// (length-prefixed frames, envelopes carrying a session ID, KindOpen /
// KindCancel to start and tear down individual sessions over one
// connection), and v6 clients pipeline their rounds — Settle(n) and
// Quote(n+1) leave in one write, the settlement Ack is read together with
// the next Offer — so a steady-state imperfect round costs one RTT instead
// of two. The envelope sequence per session is unchanged from v5, which is
// what keeps resume and bit-identity intact. v5 added the sharded-fabric
// envelopes: KindRedirect (a shard that no longer owns a market answers
// with the current owner and shard-map epoch instead of an error) and
// KindStats (the admin metrics snapshot rebalancers consume), plus
// ClientHello.StatsOnly. v4 added session resume (client identity and
// resume round in ImperfectHello, Resumed in Hello) and the KindBusy
// admission-control envelope; v2–v5 clients are still accepted.
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
	// KindBusy is the v4 admission-control rejection: the server's session
	// pool is saturated and the connection is refused rather than queued.
	// Clients surface it as ErrServerBusy and may retry with backoff.
	KindBusy
	// KindRedirect is the v5 shard-routing answer: the server does not own
	// the requested market, and instead of a terminal error it names the
	// shard that does (plus the shard-map epoch of that knowledge). Clients
	// surface it as a *RedirectError and transparently redial the owner.
	KindRedirect
	// KindStats is the v5 admin metrics envelope: a server answers a
	// StatsOnly hello with its counter snapshot — server totals plus the
	// per-market load the fabric rebalancer plans transfers from — and
	// closes.
	KindStats
	// KindOpen is the v6 mux session opener: a ClientHello carried inside
	// the multiplexed stream, stamped with the fresh session ID every frame
	// of the session will carry. The server answers on the same SID with a
	// Hello (or a typed refusal: error, busy, redirect) and the session then
	// speaks the ordinary envelope sequence.
	KindOpen
	// KindCancel is the v6 mux session teardown: the client abandons one
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

// ClientHello opens a v2/v3 session: the task party names the protocol
// version it speaks, the market it wants to bargain in, and the
// information regime it wants to play.
type ClientHello struct {
	// Version is the client's protocol version (ProtocolVersion).
	Version int
	// Market selects the engine on a multi-market server; "" picks the
	// server's default (first registered) market.
	Market string
	// Mode names the information regime (ModePerfect, ModeImperfect); ""
	// means perfect (and is what v2 clients send).
	Mode string
	// Imperfect carries the imperfect-regime parameters; required when Mode
	// is ModeImperfect, ignored otherwise.
	Imperfect *ImperfectHello
	// ListOnly asks for the Hello (markets, listing, key) without opening a
	// bargaining session; the server answers and closes.
	ListOnly bool
	// StatsOnly (v5) asks for the server's metrics snapshot (a KindStats
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
	// estimator; also carried per-quote for legacy reasons).
	Target float64
	// ExplorationRounds is N of Case VII; <= 0 means the core default.
	ExplorationRounds int
	// ReplaySteps is the per-round experience-replay budget; <= 0 means
	// the core default.
	ReplaySteps int
	// ClientID (v4) is a client-chosen stable identity — filename-safe,
	// [A-Za-z0-9_-], at most 64 bytes — under which the server checkpoints
	// this session's estimator state. "" disables checkpointing.
	ClientID string
	// ResumeRound (v4) asks the server to resume this identity's
	// checkpointed session from after round ResumeRound instead of starting
	// fresh. 0 starts fresh; > 0 requires ClientID. The server refuses
	// (error envelope) when it has no matching checkpoint.
	ResumeRound int
}

// Hello announces a session: the data party publishes its listing and, when
// the session settles securely, its Paillier public key. v2 servers also
// name the resolved market and every market they serve.
type Hello struct {
	// Version is the server's protocol version (0 on legacy v1 endpoints).
	Version int
	// Market is the resolved market name ("" on legacy v1 endpoints).
	Market string
	// Markets lists every market the server serves.
	Markets []string
	// Modes lists the information regimes the server serves (v3; secure
	// servers omit ModeImperfect, which needs cleartext settlement).
	Modes   []string
	Bundles []BundleInfo
	Secure  bool
	PubN    []byte // Paillier modulus when Secure
	// Resumed (v4) confirms a granted resume: the round the server's
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
	// Target is the task party's exact target gain ΔG* (v2; legacy clients
	// leave it 0 and the server derives it from the quote's knee).
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
	// gain — the hint that fills core.Result.TargetBundleID on the client
	// (-1 or 0-valued on legacy servers that never set it on Fail offers).
	TargetBundleID int
}

// Decision is the task party's settlement verdict.
type Decision int

// Task-party settlement decisions.
const (
	DecisionContinue Decision = iota // Case 6: escalate next round
	DecisionAccept                   // Case 5: pay and close
	DecisionFail                     // Case 4: walk away
)

// Settle reports the VFL course's outcome back to the data party. In clear
// mode it carries the realized ΔG; in secure mode only the encrypted Eq. 2
// payment. A Settle sent in place of a Quote is a clean walk-away notice
// (the buyer leaves without a settlement).
type Settle struct {
	Round      int
	Decision   Decision
	Gain       float64 // clear mode only
	EncPayment []byte  // secure mode: Paillier ciphertext of the payment
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

// Redirect is the v5 shard-routing payload: the answering server does not
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

// ServerStats is the server-totals half of the v5 stats envelope, mirroring
// the frontend's counter snapshot field for field.
type ServerStats struct {
	Accepted    uint64
	Sessions    uint64
	Closed      uint64
	Failed      uint64
	Rejected    uint64
	Busy        uint64
	Redirected  uint64
	Evicted     uint64
	Dropped     uint64
	Watchdog    uint64
	Quarantined uint64
	Active      int64
}

// MarketStats is one market's slice of the v5 stats envelope: session load
// split by regime plus the valuation-oracle counters — the per-market load
// signal the fabric rebalancer plans transfers from.
type MarketStats struct {
	Sessions          uint64
	ImperfectSessions uint64
	ResumedSessions   uint64
	ActiveSessions    int64
	OracleTrainings   int
	OracleCachedGains int
	OracleHits        int
	OracleCoalesced   int
	OracleRestored    int
	// CheckpointedClients counts the client identities with live estimator
	// checkpoints — sessions a migration must carry to the next owner.
	CheckpointedClients int
}

// StatsReport is the v5 admin metrics snapshot a server answers a
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
	// SID is the session ID on v6 multiplexed connections: every frame of a
	// muxed session carries the ID its KindOpen allocated, and the per-conn
	// demux on both ends routes by it. 0 on serial (one-session) conns.
	SID      uint64       `json:",omitempty"`
	Hello    *Hello       `json:",omitempty"`
	Quote    *Quote       `json:",omitempty"`
	Offer    *Offer       `json:",omitempty"`
	Settle   *Settle      `json:",omitempty"`
	Client   *ClientHello `json:",omitempty"`
	Err      *ErrorMsg    `json:",omitempty"`
	Ack      *Ack         `json:",omitempty"`
	Redirect *Redirect    `json:",omitempty"`
	Stats    *StatsReport `json:",omitempty"`
}

func decisionOf(d core.SettleDecision) Decision {
	switch d {
	case core.SettleAccept:
		return DecisionAccept
	case core.SettleFail:
		return DecisionFail
	default:
		return DecisionContinue
	}
}

func coreDecision(d Decision) core.SettleDecision {
	switch d {
	case DecisionAccept:
		return core.SettleAccept
	case DecisionFail:
		return core.SettleFail
	default:
		return core.SettleContinue
	}
}
