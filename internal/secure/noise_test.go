package secure

// Tests of the randomizer pool: pooled encryption must be indistinguishable
// from inline encryption to the decryptor, a drained or closed pool must
// degrade to inline computation (never deadlock), no pooled randomizer
// may ever serve two encryptions, and refill across every pool in the
// process stays within the shared refill budget.

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPooledEncryptMatchesInline(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	ns := NewNoiseSource(pk, 16, 1, rand.Reader)
	defer ns.Close()
	if err := ns.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	values := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2540000),
		new(big.Int).Sub(pk.N, one)}
	for _, v := range []float64{-0.05, 0.17, -123.456} {
		m, err := EncodeFixed(pk, v)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, m)
	}
	for _, m := range values {
		pooled, err := ns.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		inline, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		if pooled.C.Cmp(inline.C) == 0 {
			t.Fatal("pooled and inline encryption produced identical ciphertexts")
		}
		gotPooled := decryptBothWays(t, sk, pooled)
		gotInline := decryptBothWays(t, sk, inline)
		if gotPooled.Cmp(m) != 0 || gotInline.Cmp(gotPooled) != 0 {
			t.Fatalf("pooled %v / inline %v, want %v", gotPooled, gotInline, m)
		}
	}
}

func TestPooledEncryptRejectsOutOfRange(t *testing.T) {
	sk := testKeyPair(t)
	ns := NewNoiseSource(&sk.PublicKey, 4, 1, rand.Reader)
	defer ns.Close()
	if _, err := ns.Encrypt(big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext accepted")
	}
	if _, err := ns.Encrypt(new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext = n accepted")
	}
}

func TestNoiseRerandomizePreservesPlaintext(t *testing.T) {
	sk := testKeyPair(t)
	ns := NewNoiseSource(&sk.PublicKey, 8, 1, rand.Reader)
	defer ns.Close()
	if err := ns.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(5555))
	b, err := ns.Rerandomize(a)
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("rerandomization did not change the ciphertext")
	}
	if got := decryptBothWays(t, sk, b); got.Int64() != 5555 {
		t.Fatalf("rerandomized plaintext = %v", got)
	}
}

// TestNoiseSourceNeverDoubleSpends hammers a small pool from many
// goroutines racing Close and asserts (a) no deadlock — every draw
// completes, falling back inline when drained — and (b) every pooled
// factor serves exactly one encryption: two spends of one randomizer would
// make the two ciphertexts' message-independent factors equal, which for
// encryptions of zero means equal ciphertexts. Run under -race.
func TestNoiseSourceNeverDoubleSpends(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	ns := NewNoiseSource(pk, 8, 2, rand.Reader)
	if err := ns.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 24
	zero := new(big.Int)
	cts := make([][]*Ciphertext, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ct, err := ns.Encrypt(zero) // Enc(0) = the randomizer itself
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				cts[g] = append(cts[g], ct)
				if i == perG/2 && g == 0 {
					ns.Close() // mid-flight shutdown must not deadlock anyone
				}
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[string]bool, goroutines*perG)
	for _, row := range cts {
		for _, ct := range row {
			key := ct.C.Text(62)
			if seen[key] {
				t.Fatal("a randomizer was spent twice")
			}
			seen[key] = true
		}
	}
	st := ns.Stats()
	if st.Pooled+st.Inline < goroutines*perG {
		t.Fatalf("draw accounting lost draws: pooled %d + inline %d < %d", st.Pooled, st.Inline, goroutines*perG)
	}
	// After Close the pool eventually drains; encryption must keep working.
	ct, err := ns.Encrypt(big.NewInt(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptBothWays(t, sk, ct); got.Int64() != 42 {
		t.Fatalf("post-Close encryption decrypted to %v", got)
	}
}

// TestNoisePrimeHonorsCancellation: a cancelled context stops Prime.
func TestNoisePrimeHonorsCancellation(t *testing.T) {
	sk := testKeyPair(t)
	ns := NewNoiseSource(&sk.PublicKey, 4, 1, rand.Reader)
	defer ns.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ns.Prime(ctx); err == nil {
		t.Fatal("Prime ignored a cancelled context")
	}
}

// TestReporterIgnoresMismatchedPool: a pool built for another key (the
// server rotated between sessions) must not poison the settlement — Seal
// falls back to inline encryption under the session key.
func TestReporterIgnoresMismatchedPool(t *testing.T) {
	sk := testKeyPair(t)
	other := goldenKey(t)
	stale := NewNoiseSource(&other.PublicKey, 4, 1, rand.Reader)
	defer stale.Close()
	if err := stale.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	data := NewDataReceiver(sk)
	ct, err := Seal(data.PublicKey(), stale, 2.54)
	if err != nil {
		t.Fatal(err)
	}
	pay, err := data.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if pay < 2.54-1e-5 || pay > 2.54+1e-5 {
		t.Fatalf("payment through a mismatched pool = %v, want 2.54", pay)
	}
	if st := stale.Stats(); st.Pooled != 0 {
		t.Fatalf("mismatched pool served %d draws", st.Pooled)
	}
}

func TestNoiseStatsCountPooledDraws(t *testing.T) {
	sk := testKeyPair(t)
	ns := NewNoiseSource(&sk.PublicKey, 4, 1, rand.Reader)
	defer ns.Close()
	if err := ns.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ns.Encrypt(big.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := ns.Stats()
	if st.Pooled == 0 {
		t.Fatalf("primed pool served no draws: %+v", st)
	}
}

// gaugeReader is crypto/rand behind a gauge of reads in flight. A refill
// reads its entropy inside its budget slot, so the gauge's peak is the
// most factors that were ever computing at once; each read dwells long
// enough that unbudgeted workers would overlap.
type gaugeReader struct{ cur, peak atomic.Int32 }

func (g *gaugeReader) Read(p []byte) (int, error) {
	n := g.cur.Add(1)
	defer g.cur.Add(-1)
	for old := g.peak.Load(); n > old && !g.peak.CompareAndSwap(old, n); old = g.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	return rand.Read(p)
}

// TestNoiseRefillStaysWithinBudget drains several two-worker pools at once,
// more workers than the budget has slots, and checks that every pool keeps
// refilling while no more than cap(refillSlots) factors are ever computed
// at once across all of them.
func TestNoiseRefillStaysWithinBudget(t *testing.T) {
	sk := testKeyPair(t)
	const size, rounds = 4, 3
	sources := cap(refillSlots) + 2
	var gauge gaugeReader
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		ns := NewNoiseSource(&sk.PublicKey, size, 2, &gauge)
		defer ns.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Pool-only receives: an inline draw would read the gauge
			// outside the budget.
			for k := 0; k < rounds*size; k++ {
				select {
				case <-ns.pool:
				case <-time.After(10 * time.Second):
					t.Errorf("pool stopped refilling after %d factors", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak := gauge.peak.Load(); peak < 1 || int(peak) > cap(refillSlots) {
		t.Fatalf("peak concurrent refills = %d, budget %d", peak, cap(refillSlots))
	}
}

// blockingReader parks every read until release closes, announcing each
// parked read on entered, so a test can hold refill slots indefinitely.
type blockingReader struct{ entered, release chan struct{} }

func (b *blockingReader) Read(p []byte) (int, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return rand.Read(p)
}

// TestNoiseBudgetNeverGatesCloseOrInline occupies every refill slot with
// a source whose entropy blocks, then checks that another source still
// encrypts inline on its drained pool, that its Prime honors ctx, and that
// its Close returns while its workers are waiting for a slot.
func TestNoiseBudgetNeverGatesCloseOrInline(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	slots := cap(refillSlots)
	blocker := &blockingReader{entered: make(chan struct{}, slots), release: make(chan struct{})}
	hog := NewNoiseSource(pk, 4, slots, blocker)
	defer hog.Close()
	defer close(blocker.release)
	for i := 0; i < slots; i++ {
		select {
		case <-blocker.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d refill slots taken", i, slots)
		}
	}

	ns := NewNoiseSource(pk, 4, 2, rand.Reader)
	ct, err := ns.Encrypt(big.NewInt(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptBothWays(t, sk, ct); got.Int64() != 42 {
		t.Fatalf("inline encryption decrypted to %v", got)
	}
	if st := ns.Stats(); st.Inline != 1 || st.Produced != 0 {
		t.Fatalf("refill ran without a slot: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := ns.Prime(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Prime waiting for a slot returned %v", err)
	}

	closed := make(chan struct{})
	go func() { ns.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for another source's refill slot")
	}
}

// Rerandomize multiplies the ciphertext by a pooled encryption of zero,
// unlinking it from the original without changing the plaintext.
func (s *NoiseSource) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	rn, err := s.factor()
	if err != nil {
		return nil, err
	}
	return s.pk.Add(a, &Ciphertext{C: rn}), nil
}
