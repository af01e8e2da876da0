package secure

// Tests of the data party's decryption blinding: every blinded open
// decrypts exactly like the textbook reference, every pair a DataReceiver
// uses is a p-th (q-th) power that vanishes under the CRT exponent, the
// pair changes on every open (squared in place) and is redrawn every
// blindRefresh-th, concurrent opens all decrypt correctly, and a failed
// entropy read fails the settlement instead of decrypting unblinded.

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
)

// pairNow snapshots the pair the receiver's next open squares (nil before
// the first draw).
func pairNow(d *DataReceiver) (up, uq *big.Int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.up == nil {
		return nil, nil
	}
	return new(big.Int).Set(d.up), new(big.Int).Set(d.uq)
}

// checkPrimePowers fails unless up^(p−1) ≡ 1 mod p² and uq^(q−1) ≡ 1 mod
// q²: the pair must vanish under decrypt's exponents.
func checkPrimePowers(t *testing.T, sk *PrivateKey, up, uq *big.Int) {
	t.Helper()
	if new(big.Int).Exp(up, sk.pOrder, sk.p2).Cmp(one) != 0 {
		t.Fatalf("blinding up = %v is not a p-th power mod p²", up)
	}
	if new(big.Int).Exp(uq, sk.qOrder, sk.q2).Cmp(one) != 0 {
		t.Fatalf("blinding uq = %v is not a q-th power mod q²", uq)
	}
}

// squareOf reports whether next = prev² mod m.
func squareOf(prev, next, m *big.Int) bool {
	sq := new(big.Int).Mul(prev, prev)
	return sq.Mod(sq, m).Cmp(next) == 0
}

// TestBlindedOpenMatchesClassic opens ≥100 ciphertexts through one
// receiver, crossing ≥3 pair refreshes: range edges, negative fixed-point
// encodings, random plaintexts and homomorphic sums each decode exactly as
// the textbook decryption of the same ciphertext does.
func TestBlindedOpenMatchesClassic(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	d := NewDataReceiver(sk)
	half := new(big.Int).Rsh(sk.N, 1)
	plain := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(sk.N, one),
		new(big.Int).Set(half),
		new(big.Int).Add(half, one),
		new(big.Int).Sub(half, one),
	}
	for _, v := range []float64{-0.05, -123.456789, 0.000001, -0.000001, 2.54, -1.4} {
		m, err := EncodeFixed(pk, v)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, m)
	}
	var cts []*Ciphertext
	for _, m := range plain {
		ct, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	for len(cts) < 4*blindRefresh {
		m, err := rand.Int(rand.Reader, sk.N)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
		// A homomorphic sum of the last two ciphertexts.
		cts = append(cts, pk.Add(cts[len(cts)-2], ct))
	}

	refreshes := 0
	prevUp, prevUq := pairNow(d)
	for i, ct := range cts {
		classic, err := sk.DecryptClassic(ct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.OpenPayment(&GainReport{EncPayment: ct})
		if err != nil {
			t.Fatal(err)
		}
		if want := DecodeFixed(pk, classic); got != want {
			t.Fatalf("ciphertext %d: blinded open %v, classic %v", i, got, want)
		}
		up, uq := pairNow(d)
		checkPrimePowers(t, sk, up, uq)
		if prevUp != nil && up.Cmp(prevUp) == 0 {
			t.Fatalf("open %d left the blinding pair unchanged", i)
		}
		if prevUp == nil || !squareOf(prevUp, up, sk.p2) || !squareOf(prevUq, uq, sk.q2) {
			refreshes++
		}
		prevUp, prevUq = up, uq
	}
	if len(cts) < 100 || refreshes < 4 { // the first draw plus ≥3 refreshes
		t.Fatalf("%d opens drew %d pairs; want ≥100 opens and ≥4 pairs", len(cts), refreshes)
	}
}

// TestBlindingPairSequence drives the pair hand-out directly: every pair
// handed out is a p-th (q-th) power, consecutive opens get different
// operands, each pair is the previous one squared, and exactly every
// blindRefresh-th open gets a fresh draw instead.
func TestBlindingPairSequence(t *testing.T) {
	sk := testKeyPair(t)
	d := NewDataReceiver(sk)
	const opens = 3*blindRefresh + 8
	var prevUp, prevUq *big.Int
	fresh := 0
	for i := 1; i <= opens; i++ {
		up, uq, err := d.blinding()
		if err != nil {
			t.Fatal(err)
		}
		checkPrimePowers(t, sk, up, uq)
		if prevUp != nil && (up.Cmp(prevUp) == 0 || uq.Cmp(prevUq) == 0) {
			t.Fatalf("opens %d and %d got the same blinding operand", i-1, i)
		}
		squared := prevUp != nil && squareOf(prevUp, up, sk.p2) && squareOf(prevUq, uq, sk.q2)
		if wantFresh := i == 1 || i%blindRefresh == 0; squared == wantFresh {
			t.Fatalf("open %d: squared %v, want a fresh pair %v", i, squared, wantFresh)
		}
		if !squared {
			fresh++
		}
		prevUp, prevUq = up, uq
	}
	if want := 1 + opens/blindRefresh; fresh != want {
		t.Fatalf("%d opens drew %d pairs, want %d", opens, fresh, want)
	}
}

// TestBlindedOpenConcurrent: 8 goroutines × 200 opens share one receiver
// (its pair lock and its refreshes) and every payment decodes exactly.
// Run under -race.
func TestBlindedOpenConcurrent(t *testing.T) {
	sk := testKeyPair(t)
	d := NewDataReceiver(sk)
	task := NewTaskReporter(d.PublicKey(), rand.Reader)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				want := float64(g*perG+i) / 1000
				rep, err := task.Report(want)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := d.OpenPayment(rep)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("goroutine %d open %d: %v, want %v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d.uses != goroutines*perG {
		t.Fatalf("receiver counted %d opens, want %d", d.uses, goroutines*perG)
	}
}

// failAfter reads from crypto/rand until it has served n reads, then
// fails every read.
type failAfter struct {
	mu sync.Mutex
	n  int
}

var errEntropy = errors.New("entropy source failed")

func (f *failAfter) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n <= 0 {
		return 0, errEntropy
	}
	f.n--
	return rand.Read(p)
}

// TestBlindedOpenFailsWithoutEntropy: when a blinding pair cannot be
// drawn, the open fails with the entropy error; it never decrypts
// unblinded. That holds for the first open and for a refresh, and the
// open after a failed draw draws again.
func TestBlindedOpenFailsWithoutEntropy(t *testing.T) {
	sk := testKeyPair(t)
	task := NewTaskReporter(&sk.PublicKey, rand.Reader)
	rep, err := task.Report(2.54)
	if err != nil {
		t.Fatal(err)
	}

	d := NewDataReceiver(sk)
	d.random = &failAfter{}
	if _, err := d.OpenPayment(rep); !errors.Is(err, errEntropy) {
		t.Fatalf("first open without entropy returned %v", err)
	}

	src := &failAfter{n: 1 << 20}
	d = NewDataReceiver(sk)
	d.random = src
	for i := 1; i < blindRefresh; i++ {
		if _, err := d.OpenPayment(rep); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	src.mu.Lock()
	src.n = 0
	src.mu.Unlock()
	if _, err := d.OpenPayment(rep); !errors.Is(err, errEntropy) {
		t.Fatalf("refreshing open without entropy returned %v", err)
	}
	if _, err := d.OpenPayment(rep); !errors.Is(err, errEntropy) {
		t.Fatalf("open after a failed draw returned %v; it must draw again", err)
	}
	src.mu.Lock()
	src.n = 1 << 20
	src.mu.Unlock()
	pay, err := d.OpenPayment(rep)
	if err != nil || pay < 2.54-1e-5 || pay > 2.54+1e-5 {
		t.Fatalf("open after entropy returned = %v, %v; want 2.54", pay, err)
	}
}
