package secure

import (
	"crypto/rand"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"
)

// GainScale is the fixed-point resolution for encoding performance gains
// and payments: values are encoded as round(v · GainScale). 1e-6 precision
// comfortably covers the paper's smallest tolerances (εd = 1e-5 on Credit).
const GainScale = 1_000_000

// MaxFixed is the largest magnitude EncodeFixed accepts: the scaled value
// must fit an int64, so |v| must stay below 2⁶³/GainScale. Gains and
// payments in this market are O(1)–O(10³), five orders of magnitude under
// the bound; hitting it means a corrupted value, not a real settlement.
const MaxFixed = float64(math.MaxInt64) / GainScale

// EncodeFixed converts a (possibly negative) float into the field's
// fixed-point representation: negatives map to n - |v|·scale, the usual
// two's-complement-style embedding. Values that are not finite, would
// overflow the int64 scaling (|v| ≥ MaxFixed), or would not fit the key's
// signed capacity (|v|·scale ≥ n/2) are rejected — silent wrapping would
// settle an arbitrarily wrong payment.
func EncodeFixed(pk *PublicKey, v float64) (*big.Int, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("secure: cannot encode %v", v)
	}
	if math.Abs(v) >= MaxFixed {
		return nil, fmt.Errorf("secure: value %v overflows the fixed-point range (|v| < %v)", v, MaxFixed)
	}
	scaled := int64(math.Round(v * GainScale))
	m := big.NewInt(scaled)
	if m.CmpAbs(pk.halfN()) >= 0 {
		return nil, fmt.Errorf("secure: value %v exceeds the key's signed capacity", v)
	}
	if scaled < 0 {
		m.Add(m, pk.N)
	}
	return m, nil
}

// DecodeFixed inverts EncodeFixed, treating residues above n/2 as negative.
func DecodeFixed(pk *PublicKey, m *big.Int) float64 {
	v := new(big.Int).Set(m)
	if v.Cmp(pk.halfN()) > 0 {
		v.Sub(v, pk.N)
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f / GainScale
}

// GainReport is the encrypted settlement message the task party sends after
// a VFL course. Only the holder of the private key — the data party — can
// decrypt the payment; the raw ΔG never crosses the boundary in clear.
type GainReport struct {
	// EncPayment encrypts the Eq. 2 payment under the data party's key,
	// computed by the task party from its plaintext gain.
	EncPayment *Ciphertext
}

// TaskReporter is the task party's side of the secure exchange: it holds
// the data party's public key and the agreed quote.
type TaskReporter struct {
	pk    *PublicKey
	rand  io.Reader
	noise *NoiseSource
}

// ReporterOption configures a TaskReporter at construction time.
type ReporterOption func(*TaskReporter)

// WithNoise attaches a randomizer pool to the reporter: Report then draws
// precomputed r^n factors from it — one mulmod per settlement instead of a
// modexp — falling back inline when drained. A nil source is ignored. The
// pool must have been built for the same public key the reporter encrypts
// under.
func WithNoise(ns *NoiseSource) ReporterOption {
	return func(t *TaskReporter) { t.noise = ns }
}

// NewTaskReporter builds the task party's reporter under the data party's
// public key.
func NewTaskReporter(pk *PublicKey, random io.Reader, opts ...ReporterOption) *TaskReporter {
	t := &TaskReporter{pk: pk, rand: random}
	for _, o := range opts {
		o(t)
	}
	return t
}

// encrypt routes through the noise pool when one is attached — but only
// when the pool was built for this reporter's key. A pooled factor under a
// stale key (the server rotated between sessions) would decrypt to
// garbage with no error, Paillier being unauthenticated; falling back to
// inline encryption under the session key keeps the settlement correct.
func (t *TaskReporter) encrypt(m *big.Int) (*Ciphertext, error) {
	if t.noise != nil && t.noise.Key().N.Cmp(t.pk.N) == 0 {
		return t.noise.Encrypt(m)
	}
	return t.pk.Encrypt(t.rand, m)
}

// Report encrypts an Eq. 2 payment under the data party's key. The task
// party computes the payment on its plaintext side — it knows ΔG — and
// only that value is encrypted, so the data party learns exactly the
// payment and nothing else about the gain beyond what the payment function
// already reveals.
func (t *TaskReporter) Report(payment float64) (*GainReport, error) {
	m, err := EncodeFixed(t.pk, payment)
	if err != nil {
		return nil, err
	}
	ct, err := t.encrypt(m)
	if err != nil {
		return nil, err
	}
	return &GainReport{EncPayment: ct}, nil
}

// blindRefresh is how many opens one blinding pair serves: a
// DataReceiver squares its pair after every use and draws a fresh one on
// every blindRefresh-th.
const blindRefresh = 32

// DataReceiver is the data party's side: it owns the private key, and the
// pair (up, uq) that blinds every decryption. up is a p-th power mod p² and
// uq a q-th power mod q², so multiplying the ciphertext's residues by them
// changes each exponentiation's operand but not the plaintext. A
// DataReceiver is safe for concurrent use.
type DataReceiver struct {
	sk     *PrivateKey
	random io.Reader

	mu     sync.Mutex // guards the pair and the use count
	up, uq *big.Int   // the next open's pair; nil until the first draw
	uses   uint64
}

// NewDataReceiver wraps the data party's private key.
func NewDataReceiver(sk *PrivateKey) *DataReceiver {
	return &DataReceiver{sk: sk, random: rand.Reader}
}

// PublicKey returns the key the task party should encrypt under.
func (d *DataReceiver) PublicKey() *PublicKey { return &d.sk.PublicKey }

// blinding hands one open its blinding pair. The current pair is taken and
// squared in place under the lock; every blindRefresh-th use (and the
// first) draws a fresh pair outside the lock instead, while concurrent
// opens go on squaring the old one. A failed draw drops the pair, so the
// next open draws again.
func (d *DataReceiver) blinding() (up, uq *big.Int, err error) {
	d.mu.Lock()
	d.uses++
	if d.up != nil && d.uses%blindRefresh != 0 {
		up, uq = new(big.Int).Set(d.up), new(big.Int).Set(d.uq)
		d.setSquares(up, uq)
		d.mu.Unlock()
		return up, uq, nil
	}
	d.mu.Unlock()
	up, uq, err = d.sk.blindingPair(d.random)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.up, d.uq = nil, nil
		return nil, nil, err
	}
	d.setSquares(up, uq)
	return up, uq, nil
}

// setSquares makes the squares of a handed-out pair the next open's pair,
// two half-width mulmods. Callers hold mu.
func (d *DataReceiver) setSquares(up, uq *big.Int) {
	if d.up == nil {
		d.up, d.uq = new(big.Int), new(big.Int)
	}
	d.up.Mul(up, up).Mod(d.up, d.sk.p2)
	d.uq.Mul(uq, uq).Mod(d.uq, d.sk.q2)
}

// OpenPayment decrypts a payment report. The ciphertext's residues mod p²
// and q² are blinded before the CRT exponentiations, so neither operand is
// the wire ciphertext; a settlement whose blinding cannot be drawn fails
// rather than decrypt unblinded.
func (d *DataReceiver) OpenPayment(r *GainReport) (float64, error) {
	sk := d.sk
	if err := sk.checkCiphertext(r.EncPayment); err != nil {
		return 0, err
	}
	up, uq, err := d.blinding()
	if err != nil {
		return 0, err
	}
	c := r.EncPayment.C
	cp := new(big.Int).Mod(c, sk.p2)
	cp.Mul(cp, up).Mod(cp, sk.p2)
	cq := new(big.Int).Mod(c, sk.q2)
	cq.Mul(cq, uq).Mod(cq, sk.q2)
	return DecodeFixed(&sk.PublicKey, sk.decrypt(cp, cq)), nil
}
