package secure

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestKeyProviders(t *testing.T) {
	// Static: hands back exactly the wrapped key.
	sk := goldenKey(t)
	if got, err := StaticKey(sk).Key(); err != nil || got != sk {
		t.Fatalf("StaticKey = %v, %v", got, err)
	}

	// Async: generation starts immediately, Key blocks until it lands, and
	// every call returns the same key.
	async, err := AsyncKey(rand.Reader, MinKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := async.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := async.Key()
	if err != nil || k1 != k2 {
		t.Fatalf("AsyncKey returned different keys: %p vs %p (%v)", k1, k2, err)
	}

	// Eager: ready on return.
	eager, err := EagerKey(rand.Reader, MinKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := eager.Key(); err != nil || k == nil {
		t.Fatalf("EagerKey = %v, %v", k, err)
	}

	// A provider's key must actually work.
	ct, err := k1.Encrypt(rand.Reader, big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k1.Decrypt(ct); err != nil || got.Int64() != 99 {
		t.Fatalf("async key round trip: %v, %v", got, err)
	}
}

func TestKeyProvidersValidateBitsSynchronously(t *testing.T) {
	if _, err := AsyncKey(rand.Reader, 64); err == nil {
		t.Fatal("AsyncKey accepted a weak key size")
	}
	if _, err := EagerKey(rand.Reader, 64); err == nil {
		t.Fatal("EagerKey accepted a weak key size")
	}
}
