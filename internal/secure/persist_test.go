package secure

import (
	"crypto/rand"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

func TestPersistedKeySurvivesRestart(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, err := PersistedKey(st, "keys/titanic", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	sk1, err := k1.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1.Restored() || k1.Generation() != 1 {
		t.Fatalf("fresh key: restored=%v gen=%d", k1.Restored(), k1.Generation())
	}

	// "Restart": a new provider over the same store must announce the same
	// modulus without a prime search.
	k2, err := PersistedKey(st, "keys/titanic", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	sk2, _ := k2.Key()
	if !k2.Restored() {
		t.Fatal("second boot did not restore")
	}
	if sk1.N.Cmp(sk2.N) != 0 {
		t.Fatal("restored modulus differs")
	}
	// The restored key must actually decrypt.
	pk := &sk2.PublicKey
	c, err := pk.Encrypt(rand.Reader, big.NewInt(424242))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk2.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 424242 {
		t.Fatalf("restored key decrypted %v", m)
	}
}

func TestRotatePersistsNewGeneration(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	k, err := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	old, _ := k.Key()
	fresh, err := k.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.N.Cmp(old.N) == 0 {
		t.Fatal("rotation kept the same modulus")
	}
	if k.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", k.Generation())
	}
	cur, _ := k.Key()
	if cur.N.Cmp(fresh.N) != 0 {
		t.Fatal("Key() does not return the rotated key")
	}
	// Restart restores the rotated generation, not the boot key.
	k2, _ := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	sk2, _ := k2.Key()
	if sk2.N.Cmp(fresh.N) != 0 || k2.Generation() != 2 {
		t.Fatalf("restart restored gen %d modulus match=%v", k2.Generation(), sk2.N.Cmp(fresh.N) == 0)
	}
}

func TestPersistedKeyCorruptRecordBootsCold(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	k1, _ := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	sk1, _ := k1.Key()
	// Corrupt the record body (valid framing, garbage payload).
	if err := st.Save("keys/m", 1, []byte("not a gob key record")); err != nil {
		t.Fatal(err)
	}
	k2, err := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	sk2, err := k2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k2.Restored() {
		t.Fatal("corrupt record reported restored")
	}
	if sk1.N.Cmp(sk2.N) == 0 {
		t.Fatal("corrupt record somehow reproduced the key")
	}
}

// TestRotatingKeyBoot: the boot key generates in the background (Key
// blocks until it lands) or eagerly (ready on return), and every call
// returns the same working key.
func TestRotatingKeyBoot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		eager bool
	}{{"background", false}, {"eager", true}} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := PersistedKey(nil, "", rand.Reader, MinKeyBits, tc.eager)
			if err != nil {
				t.Fatal(err)
			}
			if tc.eager && k.Generation() != 1 {
				t.Fatalf("eager key not ready on return: generation %d", k.Generation())
			}
			k1, err := k.Key()
			if err != nil {
				t.Fatal(err)
			}
			k2, err := k.Key()
			if err != nil || k1 != k2 {
				t.Fatalf("Key returned different keys: %p vs %p (%v)", k1, k2, err)
			}
			if k.Restored() {
				t.Fatal("memory-only key reported restored")
			}
			ct, err := k1.Encrypt(rand.Reader, big.NewInt(99))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := k1.Decrypt(ct); err != nil || got.Int64() != 99 {
				t.Fatalf("key round trip: %v, %v", got, err)
			}
		})
	}
}

// TestRotatingKeyValidatesBitsSynchronously: a weak size is refused at
// construction, never inside the background generation.
func TestRotatingKeyValidatesBitsSynchronously(t *testing.T) {
	for _, eager := range []bool{false, true} {
		if _, err := PersistedKey(nil, "", rand.Reader, 64, eager); err == nil {
			t.Fatalf("PersistedKey(eager=%v) accepted a weak key size", eager)
		}
	}
}

// TestRotateConcurrentAdvancesGenerationByK: k concurrent Rotates run one
// after another, so the generation advances by exactly k and the store
// holds the key Key returns.
func TestRotateConcurrentAdvancesGenerationByK(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	k, err := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	const rotations = 4
	var wg sync.WaitGroup
	for i := 0; i < rotations; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := k.Rotate(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if g := k.Generation(); g != 1+rotations {
		t.Fatalf("generation = %d after %d concurrent rotations, want %d", g, rotations, 1+rotations)
	}
	live, _ := k.Key()
	restarted, _ := PersistedKey(st, "keys/m", rand.Reader, MinKeyBits, true)
	if stored, _ := restarted.Key(); stored.N.Cmp(live.N) != 0 {
		t.Fatal("the store does not hold the live key")
	}
}

// TestRotatingKeyReceiverResolvesGenerations: a session's receiver is
// found by the modulus its hello announced: the boot key's, after one
// Rotate the old and the new key's, and after a second Rotate the first
// modulus is rotated away. A generation keeps one receiver.
func TestRotatingKeyReceiverResolvesGenerations(t *testing.T) {
	k, err := PersistedKey(nil, "", rand.Reader, MinKeyBits, false)
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(sk *PrivateKey) {
		t.Helper()
		d, err := k.Receiver(sk.N.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := k.Receiver(sk.N.Bytes()); again != d {
			t.Fatal("one generation resolved to two receivers")
		}
		ct, err := Seal(&sk.PublicKey, nil, 1.25)
		if err != nil {
			t.Fatal(err)
		}
		if pay, err := d.Open(ct); err != nil || pay != 1.25 {
			t.Fatalf("receiver opened %v, %v; want 1.25", pay, err)
		}
	}
	boot, err := k.Key()
	if err != nil {
		t.Fatal(err)
	}
	resolves(boot)
	second, err := k.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	resolves(boot)
	resolves(second)
	third, err := k.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	resolves(second)
	resolves(third)
	if _, err := k.Receiver(boot.N.Bytes()); err == nil || !strings.Contains(err.Error(), "rotated away") {
		t.Fatalf("twice-rotated modulus resolved: %v", err)
	}
}

// TestRotatingKeyReceiverConcurrent: while rotations run, every modulus Key
// returned resolves to its own receiver unless two rotations have landed
// since the call. Run under -race.
func TestRotatingKeyReceiverConcurrent(t *testing.T) {
	k, err := PersistedKey(nil, "", rand.Reader, MinKeyBits, true)
	if err != nil {
		t.Fatal(err)
	}
	const rotators, rotations, readers = 2, 5, 2
	done := make(chan struct{})
	var readWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := k.Generation()
				sk, err := k.Key()
				if err != nil {
					t.Error(err)
					return
				}
				d, err := k.Receiver(sk.N.Bytes())
				if err != nil {
					if g := k.Generation(); g-before < 2 {
						t.Errorf("a key of generation >= %d failed to resolve at generation %d: %v", before, g, err)
						return
					}
					continue
				}
				if d.PublicKey().N.Cmp(sk.N) != 0 {
					t.Error("Receiver returned another generation's receiver")
					return
				}
			}
		}()
	}
	var rotWG sync.WaitGroup
	for i := 0; i < rotators; i++ {
		rotWG.Add(1)
		go func() {
			defer rotWG.Done()
			for j := 0; j < rotations; j++ {
				if _, err := k.Rotate(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	rotWG.Wait()
	close(done)
	readWG.Wait()
	if g := k.Generation(); g != 1+rotators*rotations {
		t.Fatalf("generation = %d, want %d", g, 1+rotators*rotations)
	}
}

// Restored reports whether the boot key was loaded from the store rather
// than generated. It blocks until the first generation lands.
func (r *RotatingKey) Restored() bool {
	<-r.ready
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}
