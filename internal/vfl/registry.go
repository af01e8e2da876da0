package vfl

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/store"
)

// memoSchemaVersion is the payload schema of a persisted oracle memo.
const memoSchemaVersion = 1

// memoFile is the on-disk shape of one oracle's memo. Key is the full
// composite oracle key, stored so a digest collision (or a renamed dataset
// reusing a file) loads cold instead of silently serving another oracle's
// valuations.
type memoFile struct {
	Key  string
	Memo MemoSnapshot
}

// Registry shares GainOracles process-wide and persists their valuation
// memos. Oracles are keyed by a canonical composite identity — everything
// that determines a gain value: dataset, oracle seed, and training config
// (see bundlekey.Fields) — so two engines over the same data reuse one
// oracle and every VFL course trains at most once per process. With a
// snapshot store, each oracle's memo is pre-loaded when the oracle is
// first registered and spilled back on Flush, so a restarted process
// answers valuations warm from its first session.
type Registry struct {
	st     *store.Store
	prefix string

	mu      sync.Mutex
	oracles map[string]*GainOracle
	// restored counts memo entries adopted from disk across all oracles.
	restored int
}

// NewRegistry builds a registry whose memos persist in st under the
// snapshot-name prefix (nil st for memory-only sharing).
func NewRegistry(st *store.Store, prefix string) *Registry {
	return &Registry{st: st, prefix: prefix, oracles: make(map[string]*GainOracle)}
}

// memoName maps an oracle key to its snapshot name: keys are free-form, so
// they are digested into a fixed filename-safe form.
func (r *Registry) memoName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return r.prefix + hex.EncodeToString(sum[:12])
}

// Oracle returns the registry's oracle for key, building it with build on
// first use. The first registration also pre-loads the oracle's persisted
// memo, if any — a damaged, missing, or mismatched snapshot simply loads
// nothing (cold start). The boolean reports whether an existing oracle was
// shared (true) or build ran (false).
func (r *Registry) Oracle(key string, build func() *GainOracle) (*GainOracle, bool) {
	r.mu.Lock()
	if o, ok := r.oracles[key]; ok {
		r.mu.Unlock()
		return o, true
	}
	r.mu.Unlock()

	// Build outside the lock: oracle construction can be expensive and two
	// engines registering different keys must not serialize. A rare
	// same-key race builds twice and keeps the first registered.
	o := build()
	n := 0
	if r.st != nil {
		var f memoFile
		err := r.st.Restore(r.memoName(key), memoSchemaVersion, func(p []byte) error {
			return gob.NewDecoder(bytes.NewReader(p)).Decode(&f)
		})
		// A memo stored under another key (a digest collision, or a renamed
		// dataset reusing the file) is a miss, not damage: it stays put.
		if err == nil && f.Key == key {
			n = o.ImportMemo(f.Memo)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.oracles[key]; ok {
		return prior, true
	}
	r.oracles[key] = o
	r.restored += n
	return o, false
}

// Flush spills every registered oracle's memo to the snapshot backend.
// Memory-only registries flush trivially. The first error is returned after
// attempting every oracle.
func (r *Registry) Flush() error {
	if r.st == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.oracles))
	oracles := make([]*GainOracle, 0, len(r.oracles))
	for k, o := range r.oracles {
		keys = append(keys, k)
		oracles = append(oracles, o)
	}
	r.mu.Unlock()

	var first error
	for i, o := range oracles {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(memoFile{Key: keys[i], Memo: o.ExportMemo()}); err != nil {
			if first == nil {
				first = fmt.Errorf("vfl: flush oracle memo: %w", err)
			}
			continue
		}
		if err := r.st.Save(r.memoName(keys[i]), memoSchemaVersion, buf.Bytes()); err != nil && first == nil {
			first = err
		}
	}
	return first
}
