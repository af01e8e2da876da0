// Package secure implements the cryptographic protections §3.6 of the paper
// prescribes for the bargaining phase: the realized performance gain ΔG is
// exchanged between the parties, so a party could run inference attacks on
// it. The package provides the Paillier additively homomorphic cryptosystem
// (the paper's reference [19]) over math/big, fixed-point encoding of
// payments, and the secure settlement in which the task party seals its
// Eq. 2 payment (Seal) and the data party opens it (DataReceiver.Open):
// the data party learns its payment without ever seeing the plaintext
// gain, and the task party never reveals more than the payment it makes.
// A wire session seals and opens only its closing round's payment, none if
// it fails. A RotatingKey owns the data party's key generations and their
// receivers.
//
// The subsystem is performance-engineered for settlement-heavy workloads.
// The data party, which holds the factorization, decrypts in CRT form over
// the half-width prime moduli (two small modexps instead of one full-width
// one), and blinds each ciphertext with its own primes: a DataReceiver keeps
// a pair of p-th and q-th powers mod p² and q², which vanish under the CRT
// exponents p−1 and q−1, squares the pair after every use and redraws it
// every 32nd, so blinding costs four half-width mulmods per settlement. The
// task party has only the public key, so the message-independent factor
// r^n mod n² of its encryption is precomputed by a concurrent NoiseSource,
// and steady-state settlement encryption costs one modular multiplication
// instead of a modexp.
package secure

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// MinKeyBits is the smallest accepted Paillier prime size. Production use
// would pick 1536+; tests and demos use small keys for speed.
const MinKeyBits = 128

// ValidateKeyBits rejects key sizes below MinKeyBits. It is the synchronous
// half of key generation: a RotatingKey that generates its boot key in the
// background runs it up front, so a bad size fails fast instead of inside a
// background goroutine.
func ValidateKeyBits(bits int) error {
	if bits < MinKeyBits {
		return fmt.Errorf("secure: key size %d too small (want >= %d bits per prime)", bits, MinKeyBits)
	}
	return nil
}

// PublicKey is a Paillier public key (n, g) with g = n + 1.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // n²

	// half caches n>>1 for the fixed-point sign split (see DecodeFixed).
	// Keys built by the package constructors carry it; a zero-constructed
	// key falls back to computing it per call.
	half *big.Int
}

// NewPublicKey builds a public key from the modulus, precomputing n² and
// the fixed-point decode threshold. It is how transport layers should
// reconstruct a key from a received modulus.
func NewPublicKey(n *big.Int) *PublicKey {
	return &PublicKey{
		N:    n,
		N2:   new(big.Int).Mul(n, n),
		half: new(big.Int).Rsh(n, 1),
	}
}

// halfN returns n>>1, cached when the key was built by a package
// constructor. The fallback never writes the cache, so a hand-built
// PublicKey value stays safe for concurrent use.
func (pk *PublicKey) halfN() *big.Int {
	if pk.half != nil {
		return pk.half
	}
	return new(big.Int).Rsh(pk.N, 1)
}

// PrivateKey is a Paillier private key. Every key retains the prime
// factorization and the precomputed CRT constants, so decryption runs two
// half-width modexps (see DataReceiver.Open).
type PrivateKey struct {
	PublicKey

	// CRT constants. p2/q2 are p²/q², pOrder/qOrder the per-prime λ = p-1
	// and q-1, hp/hq the per-prime μ, and qInvP = q⁻¹ mod p for the Garner
	// recombination.
	p, q           *big.Int
	p2, q2         *big.Int
	pOrder, qOrder *big.Int
	hp, hq         *big.Int
	qInvP          *big.Int
}

// GenerateKey creates a Paillier key pair with primes of the given bit size
// (so the modulus has 2·bits). Bits must be at least MinKeyBits; production
// use would pick 1536+, tests use small keys for speed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if err := ValidateKeyBits(bits); err != nil {
		return nil, err
	}
	for {
		p, err := rand.Prime(random, bits)
		if err != nil {
			return nil, fmt.Errorf("secure: generating prime: %w", err)
		}
		q, err := rand.Prime(random, bits)
		if err != nil {
			return nil, fmt.Errorf("secure: generating prime: %w", err)
		}
		sk, err := newPrivateKey(p, q)
		if err != nil {
			continue // degenerate draw (p = q); redraw
		}
		return sk, nil
	}
}

// NewPrivateKeyFromPrimes assembles a key pair from explicit primes — the
// import path for externally generated or test-pinned keys. Both primes
// must be distinct, at least MinKeyBits wide, and pass a probabilistic
// primality check.
func NewPrivateKeyFromPrimes(p, q *big.Int) (*PrivateKey, error) {
	if p.BitLen() < MinKeyBits || q.BitLen() < MinKeyBits {
		return nil, fmt.Errorf("secure: primes of %d and %d bits too small (want >= %d)", p.BitLen(), q.BitLen(), MinKeyBits)
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, errors.New("secure: key factors must be prime")
	}
	return newPrivateKey(new(big.Int).Set(p), new(big.Int).Set(q))
}

// newPrivateKey derives every CRT constant from the primes.
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	if p.Cmp(q) == 0 {
		return nil, errors.New("secure: primes must be distinct")
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	// Paillier with g = n+1 needs gcd(n, (p-1)(q-1)) = 1, or encryption is
	// not injective: neither prime may divide the other's predecessor.
	// Equal-size primes never do; imported ones (2p+1 and p) can.
	if new(big.Int).Mod(qm1, p).Sign() == 0 || new(big.Int).Mod(pm1, q).Sign() == 0 {
		return nil, errors.New("secure: a prime divides the other's predecessor (gcd(n, φ(n)) ≠ 1)")
	}

	// Per-prime μ with g = n+1: g^(p-1) mod p² = 1 + (p-1)·n (binomial), so
	// L_p(..) = (p-1)·n/p = (p-1)·q mod p — invertible since p divides
	// neither p-1 nor q. Symmetrically for q.
	hp := new(big.Int).Mul(pm1, q)
	hp.Mod(hp, p)
	hp.ModInverse(hp, p)
	hq := new(big.Int).Mul(qm1, p)
	hq.Mod(hq, q)
	hq.ModInverse(hq, q)
	qInvP := new(big.Int).ModInverse(q, p)
	if hp == nil || hq == nil || qInvP == nil {
		// Unreachable for distinct primes; guard against constructed input.
		return nil, errors.New("secure: CRT constants not invertible")
	}
	sk := &PrivateKey{
		PublicKey: *NewPublicKey(n),
		p:         p, q: q,
		p2:     new(big.Int).Mul(p, p),
		q2:     new(big.Int).Mul(q, q),
		pOrder: pm1, qOrder: qm1,
		hp: hp, hq: hq,
		qInvP: qInvP,
	}
	return sk, nil
}

// Ciphertext is a Paillier ciphertext.
type Ciphertext struct {
	C *big.Int
}

// Encrypt encrypts m ∈ [0, n) under the public key: c = g^m · r^n mod n².
// The r^n factor is computed inline; settlement-heavy callers draw
// precomputed factors from a NoiseSource instead (see NoiseSource.Encrypt).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := pk.NoiseFactor(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithFactor(m, rn)
}

// NoiseFactor samples a fresh unit r and returns r^n mod n² — the
// message-independent modexp of Paillier encryption, and the value a
// NoiseSource precomputes. A noise factor is simultaneously a valid
// encryption of zero under the key.
func (pk *PublicKey) NoiseFactor(random io.Reader) (*big.Int, error) {
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(r, pk.N, pk.N2), nil
}

// encryptWithFactor finishes an encryption from a precomputed r^n mod n²:
// c = (1 + m·n) · rn mod n², one modular multiplication. The factor is
// consumed — callers must never reuse one across encryptions.
func (pk *PublicKey) encryptWithFactor(m, rn *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("secure: plaintext out of range [0, n)")
	}
	// g^m = (n+1)^m = 1 + m·n (mod n²), a cheap closed form.
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("secure: sampling randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

func (sk *PrivateKey) checkCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return errors.New("secure: ciphertext out of range")
	}
	return nil
}

// decrypt finishes a CRT decryption from the ciphertext's residues
// cp ≡ c mod p² and cq ≡ c mod q², overwriting both: two modexps over the
// half-width moduli with half-width exponents, recombined by Garner's
// formula. It is bit-identical to the textbook m = L(c^λ mod n²)·μ mod n.
// A residue multiplied by any p-th power mod p² (q-th power mod q²)
// decrypts the same, since such a power raised to p−1 (q−1) is 1.
func (sk *PrivateKey) decrypt(cp, cq *big.Int) *big.Int {
	// m mod p = L_p(c^(p-1) mod p²) · hp mod p, and symmetrically mod q.
	mp := cp.Exp(cp, sk.pOrder, sk.p2)
	mp.Sub(mp, one)
	mp.Div(mp, sk.p)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)

	mq := cq.Exp(cq, sk.qOrder, sk.q2)
	mq.Sub(mq, one)
	mq.Div(mq, sk.q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)

	// Garner recombination: m = mq + q·((mp − mq)·q⁻¹ mod p) ∈ [0, n).
	m := mp.Sub(mp, mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.p)
	m.Mul(m, sk.q)
	m.Add(m, mq)
	return m
}

// blindingPair draws a fresh decryption blinding pair: up = x^p mod p² and
// uq = y^q mod q² for x uniform in [1, p) and y uniform in [1, q). Each is
// a unit whose order divides p−1 (q−1), so it vanishes under decrypt's
// exponent.
func (sk *PrivateKey) blindingPair(random io.Reader) (up, uq *big.Int, err error) {
	if up, err = primePower(random, sk.p, sk.pOrder, sk.p2); err != nil {
		return nil, nil, err
	}
	if uq, err = primePower(random, sk.q, sk.qOrder, sk.q2); err != nil {
		return nil, nil, err
	}
	return up, uq, nil
}

// primePower returns x^p mod p² for x uniform in [1, p); pm1 is p−1.
func primePower(random io.Reader, p, pm1, p2 *big.Int) (*big.Int, error) {
	x, err := rand.Int(random, pm1)
	if err != nil {
		return nil, fmt.Errorf("secure: sampling blinding: %w", err)
	}
	x.Add(x, one)
	return x.Exp(x, p, p2), nil
}
