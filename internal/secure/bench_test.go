package secure

// Before/after evidence for the CRT + amortized-randomness rebuild:
// BenchmarkPaillierDecrypt pits the CRT path against the classic reference
// (the acceptance bar is >= 3x at 1024-bit primes) and prices the blinded
// open a DataReceiver serves; BenchmarkBlinding prices a fresh blinding
// pair against the full-width r^n factor a pool would spend on it; and
// BenchmarkPaillierEncrypt pits the amortized path — the one modular
// multiplication left once the r^n factor is precomputed, which is what a
// steady-state NoiseSource draw costs — against the inline modexp. The
// end-to-end settlement shape (pool draws included) is measured by the
// root package's BenchmarkSecureSettlement.

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// benchKeys caches one key pair per prime size across the benchmarks
// (1024-bit prime search costs seconds; the benchmarks should measure
// settlement, not key generation).
var (
	benchKeyMu sync.Mutex
	benchKeyBy = map[int]*PrivateKey{}
)

func benchKey(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	benchKeyMu.Lock()
	defer benchKeyMu.Unlock()
	if k, ok := benchKeyBy[bits]; ok {
		return k
	}
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	benchKeyBy[bits] = k
	return k
}

func sizeName(bits int) string {
	if bits == 256 {
		return "p256"
	}
	return "p1024"
}

func BenchmarkPaillierEncrypt(b *testing.B) {
	for _, bits := range []int{256, 1024} {
		sk := benchKey(b, bits)
		pk := &sk.PublicKey
		m := big.NewInt(2_540_000)
		b.Run(sizeName(bits)+"/inline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pk.Encrypt(rand.Reader, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The amortized path: the r^n factor is precomputed (what a
		// NoiseSource draw hands back), leaving the closed-form g^m and one
		// mulmod per encryption. The factor is reused here purely to
		// isolate the arithmetic cost — real draws never reuse one, and a
		// channel receive adds nanoseconds.
		b.Run(sizeName(bits)+"/amortized", func(b *testing.B) {
			rn, err := pk.NoiseFactor(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.encryptWithFactor(m, rn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPaillierDecrypt(b *testing.B) {
	for _, bits := range []int{256, 1024} {
		sk := benchKey(b, bits)
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(2_540_000))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(bits)+"/classic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.DecryptClassic(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName(bits)+"/crt", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Decrypt(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The served path: CRT decryption of a blinded ciphertext plus the
		// fixed-point decode, with a fresh pair every blindRefresh opens.
		b.Run(sizeName(bits)+"/blinded", func(b *testing.B) {
			d := NewDataReceiver(sk)
			sealed := ct.C.Bytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Open(sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlinding prices the two ways to blind a decryption: a fresh
// pair of half-width prime powers (what a DataReceiver draws every
// blindRefresh opens) and a full-width r^n mod n² factor.
func BenchmarkBlinding(b *testing.B) {
	for _, bits := range []int{256, 1024} {
		sk := benchKey(b, bits)
		b.Run(sizeName(bits)+"/pair", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sk.blindingPair(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName(bits)+"/noisefactor", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.NoiseFactor(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
