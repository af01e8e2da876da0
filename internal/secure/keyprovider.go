package secure

import "io"

// KeyProvider supplies a Paillier key pair. It decouples key generation —
// seconds of prime search at production sizes — from the code path that
// needs the key: a server registers a market with an AsyncKey and starts
// accepting connections immediately; the first secure session (or Hello)
// blocks on Key until generation lands. Implementations must be safe for
// concurrent use and must return the same key (or the same error) on every
// call.
type KeyProvider interface {
	Key() (*PrivateKey, error)
}

// staticKey wraps an existing key pair.
type staticKey struct{ sk *PrivateKey }

func (s staticKey) Key() (*PrivateKey, error) { return s.sk, nil }

// StaticKey wraps an already-generated key pair as a KeyProvider.
func StaticKey(sk *PrivateKey) KeyProvider { return staticKey{sk} }

// asyncKey runs GenerateKey in a background goroutine started at
// construction; Key blocks until it lands.
type asyncKey struct {
	done chan struct{}
	sk   *PrivateKey
	err  error
}

func (a *asyncKey) Key() (*PrivateKey, error) {
	<-a.done
	return a.sk, a.err
}

// AsyncKey starts generating a key pair in the background and returns
// immediately; Key blocks until generation completes. The key size is
// validated synchronously so misconfiguration fails at the call site, not
// inside the goroutine.
func AsyncKey(random io.Reader, bits int) (KeyProvider, error) {
	if err := ValidateKeyBits(bits); err != nil {
		return nil, err
	}
	a := &asyncKey{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.sk, a.err = GenerateKey(random, bits)
	}()
	return a, nil
}

// EagerKey generates the key pair before returning — the deterministic
// option for tests and for callers that want registration to surface
// generation cost and errors synchronously.
func EagerKey(random io.Reader, bits int) (KeyProvider, error) {
	sk, err := GenerateKey(random, bits)
	if err != nil {
		return nil, err
	}
	return StaticKey(sk), nil
}
