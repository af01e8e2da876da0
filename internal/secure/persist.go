package secure

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/store"
)

// keySchemaVersion is the payload schema of a persisted key record.
const keySchemaVersion = 1

// keyRecord is the on-disk shape of one market's current Paillier key: the
// primes (everything else is derived) plus the rotation generation.
type keyRecord struct {
	Generation int
	Bits       int
	P, Q       []byte
}

// Primes returns copies of the key's prime factors — the persistable core
// of the key (NewPrivateKeyFromPrimes rebuilds everything else).
func (sk *PrivateKey) Primes() (p, q *big.Int) {
	return new(big.Int).Set(sk.p), new(big.Int).Set(sk.q)
}

// RotatingKey is a market's Paillier key pair: generated at boot (in the
// background, or eagerly), optionally persisted, and replaceable at
// runtime. It owns the key generations: each installed key gets its
// DataReceiver, and the previous generation's is kept. Key always returns
// the current generation's key (blocking until the first generation
// lands); Rotate synchronously generates a fresh pair, persists it, and
// makes it current. Rotation changes what new sessions are announced, it
// does not revoke in-flight ones: Receiver resolves a session's settlement
// under the modulus its hello announced, the current one or the one before
// it.
type RotatingKey struct {
	random io.Reader
	bits   int
	st     *store.Store // nil: memory-only
	name   string

	// rot serializes rotations from key generation through install, so k
	// concurrent Rotates advance the generation by exactly k.
	rot sync.Mutex

	mu        sync.Mutex
	ready     chan struct{} // closed once the first generation lands
	cur, prev *DataReceiver // the current and the previous generation
	gen       int
	err       error
	restored  bool
}

// Key returns the current generation's key, blocking until the first
// generation lands. Every call between rotations returns the same key (or
// the same boot error).
func (r *RotatingKey) Key() (*PrivateKey, error) {
	<-r.ready
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	return r.cur.sk, nil
}

// Receiver returns the DataReceiver of the generation whose modulus pubN a
// session's hello announced: the current generation, or the one before it,
// so sessions opened before a Rotate drain against their key. A modulus
// rotated further away fails the session; the client must reconnect under
// the announced key. It blocks until the first generation lands.
func (r *RotatingKey) Receiver(pubN []byte) (*DataReceiver, error) {
	<-r.ready
	want := new(big.Int).SetBytes(pubN)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	for _, d := range [...]*DataReceiver{r.cur, r.prev} {
		if d != nil && d.sk.N.Cmp(want) == 0 {
			return d, nil
		}
	}
	return nil, errors.New("secure: session key rotated away; reconnect under the current key")
}

// Generation reports the current key generation: 1 for the boot key
// (restored or generated), +1 per Rotate. 0 means generation has not landed
// yet.
func (r *RotatingKey) Generation() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// install persists sk and makes its receiver current, keeping the one it
// replaces; callers hold no lock.
func (r *RotatingKey) install(sk *PrivateKey, gen int, restored bool) error {
	if r.st != nil {
		p, q := sk.Primes()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(keyRecord{
			Generation: gen, Bits: r.bits, P: p.Bytes(), Q: q.Bytes(),
		}); err != nil {
			return fmt.Errorf("secure: persist key: %w", err)
		}
		if err := r.st.Save(r.name, keySchemaVersion, buf.Bytes()); err != nil {
			return err
		}
	}
	d := NewDataReceiver(sk)
	r.mu.Lock()
	r.cur, r.prev = d, r.cur
	r.gen, r.err, r.restored = gen, nil, restored
	r.mu.Unlock()
	return nil
}

// Rotate synchronously generates a fresh key pair, persists it, and makes
// it the current key. The previous key remains valid for sessions that
// already captured it; the one before that is dropped. A boot that failed
// is repaired by a Rotate that succeeds. Concurrent rotations run one
// after another.
func (r *RotatingKey) Rotate() (*PrivateKey, error) {
	<-r.ready // never interleave with boot generation
	r.rot.Lock()
	defer r.rot.Unlock()
	sk, err := GenerateKey(r.random, r.bits)
	if err != nil {
		return nil, err
	}
	if err := r.install(sk, r.Generation()+1, false); err != nil {
		return nil, err
	}
	return sk, nil
}

// PersistedKey builds a key backed by the store under the snapshot name:
// the boot key is restored from st (a damaged, missing or mismatched record
// means a cold start) or generated — in the background, unless eager — and
// every installed key is written back, so a restarted market re-announces
// the same modulus its clients knew. A nil st keeps the key in memory only.
// The key size is validated synchronously either way.
func PersistedKey(st *store.Store, name string, random io.Reader, bits int, eager bool) (*RotatingKey, error) {
	if err := ValidateKeyBits(bits); err != nil {
		return nil, err
	}
	r := &RotatingKey{random: random, bits: bits, st: st, name: name, ready: make(chan struct{})}
	boot := func() error {
		defer close(r.ready)
		err := r.bootKey()
		if err != nil {
			r.mu.Lock()
			r.err = err
			r.mu.Unlock()
		}
		return err
	}
	if eager {
		if err := boot(); err != nil {
			return nil, err
		}
		return r, nil
	}
	go func() { _ = boot() }()
	return r, nil
}

// bootKey installs the boot key: the persisted one, else a fresh one.
func (r *RotatingKey) bootKey() error {
	if sk, gen := r.load(); sk != nil {
		return r.install(sk, gen, true)
	}
	sk, err := GenerateKey(r.random, r.bits)
	if err != nil {
		return err
	}
	return r.install(sk, 1, false)
}

// load restores the persisted key record, nil on any miss. A record that
// does not decode to a valid key is damage, quarantined by the store; a
// valid record of another bit size is a plain miss and stays put until the
// fresh key overwrites it.
func (r *RotatingKey) load() (sk *PrivateKey, gen int) {
	if r.st == nil {
		return nil, 0
	}
	err := r.st.Restore(r.name, keySchemaVersion, func(payload []byte) error {
		var rec keyRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return err
		}
		if rec.Bits != r.bits {
			return nil
		}
		if rec.Generation < 1 {
			return fmt.Errorf("secure: key record generation %d", rec.Generation)
		}
		k, err := NewPrivateKeyFromPrimes(new(big.Int).SetBytes(rec.P), new(big.Int).SetBytes(rec.Q))
		if err != nil {
			return err
		}
		sk, gen = k, rec.Generation
		return nil
	})
	if err != nil {
		return nil, 0
	}
	return sk, gen
}
