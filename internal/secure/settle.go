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

// Seal is the task party's side of the secure exchange: it encrypts an
// Eq. 2 payment under the data party's public key and returns the
// ciphertext's bytes. The task party computes the payment on its plaintext
// side (it knows ΔG), so the data party learns exactly the payment and
// nothing else about the gain beyond what the payment function already
// reveals. A noise pool, when given, supplies the randomizer (one mulmod
// instead of a modexp), but only when it was built for pk: a pooled factor
// under a stale key (the server rotated between sessions) would decrypt to
// garbage with no error, Paillier being unauthenticated, so Seal encrypts
// inline under pk instead.
func Seal(pk *PublicKey, noise *NoiseSource, payment float64) ([]byte, error) {
	m, err := EncodeFixed(pk, payment)
	if err != nil {
		return nil, err
	}
	var ct *Ciphertext
	if noise != nil && noise.Key().N.Cmp(pk.N) == 0 {
		ct, err = noise.Encrypt(m)
	} else {
		ct, err = pk.Encrypt(rand.Reader, m)
	}
	if err != nil {
		return nil, err
	}
	return ct.C.Bytes(), nil
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

// Open decrypts a sealed payment. The ciphertext's residues mod p² and q²
// are blinded before the CRT exponentiations, so neither operand is the
// wire ciphertext; a settlement whose blinding cannot be drawn fails
// rather than decrypt unblinded.
func (d *DataReceiver) Open(ciphertext []byte) (float64, error) {
	sk := d.sk
	c := new(big.Int).SetBytes(ciphertext)
	if err := sk.checkCiphertext(&Ciphertext{C: c}); err != nil {
		return 0, err
	}
	up, uq, err := d.blinding()
	if err != nil {
		return 0, err
	}
	cp := new(big.Int).Mod(c, sk.p2)
	cp.Mul(cp, up).Mod(cp, sk.p2)
	cq := c.Mod(c, sk.q2)
	cq.Mul(cq, uq).Mod(cq, sk.q2)
	return DecodeFixed(&sk.PublicKey, sk.decrypt(cp, cq)), nil
}
