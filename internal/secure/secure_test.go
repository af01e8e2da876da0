package secure

import (
	"crypto/rand"
	"io"
	"math"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// testKey caches one key pair across the package's tests: generation is the
// expensive part and the tests only need a working key.
var (
	keyOnce sync.Once
	key     *PrivateKey
)

func testKeyPair(t testing.TB) *PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		k, err := GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		key = k
	})
	return key
}

func TestGenerateKeyRejectsSmallSizes(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Fatal("expected size error")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKeyPair(t)
	for _, v := range []int64{0, 1, 42, 123456789} {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != v {
			t.Fatalf("round trip %d -> %d", v, got.Int64())
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	sk := testKeyPair(t)
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext accepted")
	}
	if _, err := sk.Encrypt(rand.Reader, new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext = n accepted")
	}
}

func TestDecryptRejectsBadCiphertext(t *testing.T) {
	sk := testKeyPair(t)
	if _, err := sk.Decrypt(nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: new(big.Int)}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: new(big.Int).Set(sk.N2)}); err == nil {
		t.Fatal("ciphertext = n² accepted")
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same value are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(1234))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(8766))
	sum, err := sk.Decrypt(sk.Add(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 10000 {
		t.Fatalf("Enc(1234)+Enc(8766) = %d", sum.Int64())
	}
}

func TestHomomorphicAddPlainAndMulPlain(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(100))
	got, err := sk.Decrypt(sk.AddPlain(a, big.NewInt(23)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 123 {
		t.Fatalf("AddPlain = %d", got.Int64())
	}
	got, err = sk.Decrypt(sk.MulPlain(a, big.NewInt(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 700 {
		t.Fatalf("MulPlain = %d", got.Int64())
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(55))
	b, err := sk.Rerandomize(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("rerandomization did not change the ciphertext")
	}
	got, _ := sk.Decrypt(b)
	if got.Int64() != 55 {
		t.Fatalf("rerandomized plaintext = %d", got.Int64())
	}
}

// Property: homomorphic addition matches plaintext addition for random
// pairs.
func TestHomomorphicAddProperty(t *testing.T) {
	sk := testKeyPair(t)
	f := func(x, y uint32) bool {
		a, err := sk.Encrypt(rand.Reader, big.NewInt(int64(x)))
		if err != nil {
			return false
		}
		b, err := sk.Encrypt(rand.Reader, big.NewInt(int64(y)))
		if err != nil {
			return false
		}
		sum, err := sk.Decrypt(sk.Add(a, b))
		if err != nil {
			return false
		}
		return sum.Int64() == int64(x)+int64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPointEncodeDecode(t *testing.T) {
	sk := testKeyPair(t)
	for _, v := range []float64{0, 0.17, -0.05, 1.5, 0.000001} {
		m, err := EncodeFixed(&sk.PublicKey, v)
		if err != nil {
			t.Fatal(err)
		}
		got := DecodeFixed(&sk.PublicKey, m)
		if math.Abs(got-v) > 1.0/GainScale {
			t.Fatalf("fixed point %v -> %v", v, got)
		}
	}
	if _, err := EncodeFixed(&sk.PublicKey, math.NaN()); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := EncodeFixed(&sk.PublicKey, math.Inf(1)); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestSecurePaymentReport(t *testing.T) {
	sk := testKeyPair(t)
	data := NewDataReceiver(sk)

	// Quote (p=9.5, P0=1.4, Ph=3.0), realized gain 0.12:
	// payment = 1.4 + 9.5·0.12 = 2.54.
	ct, err := Seal(data.PublicKey(), nil, 2.54)
	if err != nil {
		t.Fatal(err)
	}
	pay, err := data.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pay-2.54) > 1e-5 {
		t.Fatalf("payment = %v, want 2.54", pay)
	}
}

// Property: for random quotes and gains, the opened seal of the Eq. 2
// payment is that payment quantized to 1/GainScale, exactly.
func TestSecurePaymentMatchesEq2Property(t *testing.T) {
	sk := testKeyPair(t)
	data := NewDataReceiver(sk)
	f := func(rateRaw, baseRaw, spanRaw, gainRaw uint16) bool {
		base := float64(baseRaw%500) / 100
		q := core.QuotedPrice{
			Rate: 0.1 + float64(rateRaw%2000)/100,
			Base: base,
			High: base + float64(spanRaw%400)/100,
		}
		want := q.Payment(float64(gainRaw)/20000 - 0.5)
		ct, err := Seal(data.PublicKey(), nil, want)
		if err != nil {
			return false
		}
		got, err := data.Open(ct)
		if err != nil {
			return false
		}
		return got == math.Round(want*GainScale)/GainScale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := testKeyPair(b)
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureReport(b *testing.B) {
	sk := testKeyPair(b)
	data := NewDataReceiver(sk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := Seal(data.PublicKey(), nil, 2.54)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := data.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// Homomorphic operations no settlement path uses, kept to check the
// scheme's algebra and CRT decryption of homomorphic results.

// Add returns the ciphertext of m1 + m2 (mod n): c1·c2 mod n².
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain returns the ciphertext of m + k (mod n).
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	kk := new(big.Int).Mod(k, pk.N)
	gm := new(big.Int).Mul(kk, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns the ciphertext of m·k (mod n): c^k mod n².
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	kk := new(big.Int).Mod(k, pk.N)
	return &Ciphertext{C: new(big.Int).Exp(a.C, kk, pk.N2)}
}

// Rerandomize multiplies the ciphertext by a fresh encryption of zero,
// unlinking it from the original without changing the plaintext. The
// randomness is computed inline; pooled callers use
// NoiseSource.Rerandomize.
func (pk *PublicKey) Rerandomize(random io.Reader, a *Ciphertext) (*Ciphertext, error) {
	rn, err := pk.NoiseFactor(random)
	if err != nil {
		return nil, err
	}
	return pk.Add(a, &Ciphertext{C: rn}), nil
}
