package secure

// Tests pinning the CRT decryption path against the textbook reference:
// golden vectors over a hardcoded key (stable across machines and Go
// versions), property tests over random plaintexts including negatives and
// the range edges, and the classic path itself pinned by the same vectors.

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// goldenKey is a pinned 128-bit-prime key pair: the golden vectors below
// were produced with the textbook encryption formula under these primes,
// so they pin GenerateKey-independent behavior of both decryption paths.
func goldenKey(t testing.TB) *PrivateKey {
	t.Helper()
	p, _ := new(big.Int).SetString("c5d5d748d5f8fde26fce681a941d0197", 16)
	q, _ := new(big.Int).SetString("f5652cc0b93fff2bfb07cd118826bdb9", 16)
	sk, err := NewPrivateKeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// goldenVectors are encryptions of known plaintexts under goldenKey with
// the fixed randomizer r = 0x123456789abcdef: c = (1+m·n)·r^n mod n².
// mNMinus1 marks the vector whose plaintext is n-1 (computed per key).
var goldenVectors = []struct {
	m        int64
	mNMinus1 bool
	c        string
}{
	{m: 0, c: "656177d813180114ae65abd33e010e5580da2486c4d1464e98a929624bc1ebc1977fabf3df36c2e9344bbe557341b9cdbe245e77f06844119ffccc0992ca6241"},
	{m: 1, c: "34e6d66bbb2b15f4d9de17857b959895789d6e3e1de2b564977130784c57b121545d5c1c5954312163c8cb578d4c43ca3dafb09910eaee37d60bd4e5066e0637"},
	{m: 2540000, c: "81fdd8db54f4c1bd979179f8026aead1ea3f814dc19fc1847a5bbafc46c77ee29ef91a93441cbacf32c0b547076194122eab41c7a8cb84243b8c704ebecf9a75"},
	{mNMinus1: true, c: "960c4f85b8e162b75bf10da53c96a5659c8e5ff21542f1a438d9c04e4843830724e2458cbf772dfeb5fb5212f072943b3bf3ea83e21d66263a491dd8dd6bc8a"},
}

func TestGoldenDecryptVectors(t *testing.T) {
	sk := goldenKey(t)
	for _, v := range goldenVectors {
		want := big.NewInt(v.m)
		if v.mNMinus1 {
			want = new(big.Int).Sub(sk.N, one)
		}
		c, ok := new(big.Int).SetString(v.c, 16)
		if !ok {
			t.Fatal("bad golden ciphertext")
		}
		ct := &Ciphertext{C: c}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("CRT decrypt golden m=%v: got %v", want, got)
		}
		classic, err := sk.DecryptClassic(ct)
		if err != nil {
			t.Fatal(err)
		}
		if classic.Cmp(want) != 0 {
			t.Fatalf("classic decrypt golden m=%v: got %v", want, classic)
		}
	}
}

// TestGoldenEncryptWithFactor pins the message-independent-factor form of
// encryption (what pooled encryption uses) to the same golden vectors.
func TestGoldenEncryptWithFactor(t *testing.T) {
	sk := goldenKey(t)
	r := big.NewInt(0x123456789abcdef)
	rn := new(big.Int).Exp(r, sk.N, sk.N2)
	for _, v := range goldenVectors {
		m := big.NewInt(v.m)
		if v.mNMinus1 {
			m = new(big.Int).Sub(sk.N, one)
		}
		ct, err := sk.encryptWithFactor(m, new(big.Int).Set(rn))
		if err != nil {
			t.Fatal(err)
		}
		if ct.C.Text(16) != v.c {
			t.Fatalf("encryptWithFactor(m=%v) = %s, want %s", m, ct.C.Text(16), v.c)
		}
	}
}

// decryptBothWays asserts the CRT path and the classic reference agree
// bit-for-bit and returns the plaintext.
func decryptBothWays(t testing.TB, sk *PrivateKey, ct *Ciphertext) *big.Int {
	t.Helper()
	crt, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := sk.DecryptClassic(ct)
	if err != nil {
		t.Fatal(err)
	}
	if crt.Cmp(classic) != 0 {
		t.Fatalf("CRT decrypt %v != classic %v", crt, classic)
	}
	return crt
}

// Property: CRT decryption equals the classic reference on uniformly
// random plaintexts across the whole field.
func TestCRTDecryptMatchesClassicProperty(t *testing.T) {
	sk := testKeyPair(t)
	src := mrand.New(mrand.NewSource(7)) //nolint:gosec // deterministic plaintext sampling
	for i := 0; i < 40; i++ {
		m := new(big.Int).Rand(src, sk.N)
		ct, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		if decryptBothWays(t, sk, ct).Cmp(m) != 0 {
			t.Fatalf("random plaintext %v did not round-trip", m)
		}
	}
}

// Property: the range edges and negative fixed-point encodings round-trip
// identically through both decryption paths.
func TestCRTDecryptRangeEdges(t *testing.T) {
	sk := testKeyPair(t)
	half := new(big.Int).Rsh(sk.N, 1)
	edges := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(sk.N, one), // most negative in the signed view
		new(big.Int).Set(half),      // largest positive
		new(big.Int).Add(half, one), // smallest negative magnitude side
		new(big.Int).Sub(half, big.NewInt(1)),
	}
	for _, v := range []float64{-0.05, -123.456789, 0.000001, -0.000001} {
		m, err := EncodeFixed(&sk.PublicKey, v)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, m)
	}
	for _, m := range edges {
		ct, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := decryptBothWays(t, sk, ct); got.Cmp(m) != 0 {
			t.Fatalf("edge %v round-tripped to %v", m, got)
		}
	}
}

// The CRT constants must survive homomorphic operations too: Add, AddPlain
// and MulPlain results decrypt identically under both paths.
func TestCRTDecryptAfterHomomorphicOps(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(123456))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(654321))
	for _, ct := range []*Ciphertext{
		sk.Add(a, b),
		sk.AddPlain(a, big.NewInt(-99)),
		sk.MulPlain(a, big.NewInt(1789)),
	} {
		decryptBothWays(t, sk, ct)
	}
}

func TestNewPrivateKeyFromPrimesRejectsBadInput(t *testing.T) {
	p, _ := new(big.Int).SetString("c5d5d748d5f8fde26fce681a941d0197", 16)
	if _, err := NewPrivateKeyFromPrimes(p, p); err == nil {
		t.Fatal("equal primes accepted")
	}
	if _, err := NewPrivateKeyFromPrimes(p, big.NewInt(65537)); err == nil {
		t.Fatal("tiny prime accepted")
	}
	notPrime := new(big.Int).Lsh(one, 200) // 2^200
	if _, err := NewPrivateKeyFromPrimes(p, notPrime); err == nil {
		t.Fatal("composite accepted")
	}
	// q = 2p'+1 with p' prime: p' divides q-1, so gcd(n, φ(n)) = p' and
	// encryption under n = p'q would not be injective.
	sg, _ := new(big.Int).SetString("d387fd9fefeff729b24c09034794374d", 16)
	safe, _ := new(big.Int).SetString("1a70ffb3fdfdfee53649812068f286e9b", 16)
	if _, err := NewPrivateKeyFromPrimes(sg, safe); err == nil {
		t.Fatal("primes with gcd(n, φ(n)) ≠ 1 accepted")
	}
}

func TestEncodeFixedRangeErrors(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	// |v| ≥ 2⁶³/GainScale used to wrap silently; it must error now.
	for _, v := range []float64{MaxFixed, -MaxFixed, MaxFixed * 2, 1e300} {
		if _, err := EncodeFixed(pk, v); err == nil {
			t.Fatalf("EncodeFixed(%v) accepted an overflowing value", v)
		}
	}
	// The largest representable magnitudes still encode and round-trip.
	for _, v := range []float64{MaxFixed * 0.99, -MaxFixed * 0.99} {
		m, err := EncodeFixed(pk, v)
		if err != nil {
			t.Fatalf("EncodeFixed(%v): %v", v, err)
		}
		got := DecodeFixed(pk, m)
		if gotRel := (got - v) / v; gotRel > 1e-9 || gotRel < -1e-9 {
			t.Fatalf("near-max %v decoded to %v", v, got)
		}
	}
}
