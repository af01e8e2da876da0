package vflmarket

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/store"
	"repro/internal/vfl"
)

// MarketState is a handle on one durable state directory: the versioned
// snapshot store underneath, the valuation-cache registry over it, and the
// per-market estimator checkpoint books. It is the only way a Server
// (WithMarketState) or an Engine (Config.State) binds durable state:
// components handed the same MarketState share one registry (one oracle
// per dataset/seed/config — every VFL course trains at most once), and
// Flush spills everything to disk so the next process boots warm.
//
// A directory's snapshots are named in one place, here:
//
//	keys/<market>                  the market's Paillier key
//	estimators/<market>/<client>   the market's estimator checkpoints
//	oracle/<digest>                valuation memos, keyed by dataset config
//
// where <market> is the market's filename-safe slug.
type MarketState struct {
	dir string
	st  *store.Store
	reg *vfl.Registry

	mu    sync.Mutex
	books map[string]*ckptBook
}

// OpenMarketState opens (creating if needed) the state directory and
// returns a fresh handle over it: an empty in-memory registry that warms
// itself from the directory's snapshots as oracles and checkpoints are
// first referenced. Open one handle per directory and process, and hand it
// to the server and every engine; a second, fresh handle over the same
// directory is how tests simulate a process restart without forking.
func OpenMarketState(dir string) (*MarketState, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("vflmarket: open state dir: %w", err)
	}
	return &MarketState{
		dir:   st.Dir(),
		st:    st,
		reg:   vfl.NewRegistry(st, oracleMemos),
		books: make(map[string]*ckptBook),
	}, nil
}

// Dir returns the state directory.
func (m *MarketState) Dir() string { return m.dir }

// Registry returns the valuation-cache registry over this state: the oracle
// sharing and memo persistence layer.
func (m *MarketState) Registry() *vfl.Registry { return m.reg }

// Flush spills everything volatile to the snapshot store: every registered
// oracle's valuation memo and every market's dirty estimator checkpoints.
// The first error is returned after attempting everything.
func (m *MarketState) Flush() error {
	first := m.reg.Flush()
	m.mu.Lock()
	books := make([]*ckptBook, 0, len(m.books))
	for _, b := range m.books {
		books = append(books, b)
	}
	m.mu.Unlock()
	for _, b := range books {
		if err := b.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// book returns the market's estimator checkpoint book, creating it on first
// use.
func (m *MarketState) book(market string) *ckptBook {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.books[market]
	if !ok {
		b = &ckptBook{
			st:     m.st,
			prefix: checkpointPrefix(market),
			cache:  make(map[string]*core.SellerCheckpoint),
			dirty:  make(map[string]bool),
		}
		m.books[market] = b
	}
	return b
}

// oracleMemos prefixes the valuation memos. They are keyed by dataset
// config, not market, so every market over a state shares the tree.
const oracleMemos = "oracle/"

// keyName names the market's Paillier key snapshot.
func keyName(market string) string { return "keys/" + marketSlug(market) }

// checkpointPrefix prefixes the market's estimator checkpoints, one per
// client identity.
func checkpointPrefix(market string) string { return "estimators/" + marketSlug(market) + "/" }

// marketKey opens the market's Paillier key, persisted under keyName. A nil
// state keeps it in memory only.
func (m *MarketState) marketKey(market string, bits int, eager bool) (*secure.RotatingKey, error) {
	if m == nil {
		return secure.PersistedKey(nil, "", rand.Reader, bits, eager)
	}
	return secure.PersistedKey(m.st, keyName(market), rand.Reader, bits, eager)
}

// snapshots lists every snapshot the market's durable state consists of:
// its key, its checkpoints, and the shared memo tree (extra memos are
// harmless and warm whoever reads them).
func (m *MarketState) snapshots(market string) ([]string, error) {
	names := []string{keyName(market)}
	for _, prefix := range []string{checkpointPrefix(market), oracleMemos} {
		listed, err := m.st.List(prefix)
		if err != nil {
			return nil, err
		}
		names = append(names, listed...)
	}
	return names, nil
}

// marketSlug maps a market name to a filename-safe snapshot path segment.
// Clean names pass through (so the on-disk layout stays readable); anything
// else is digested.
func marketSlug(name string) string {
	clean := name != "" && name[0] != '.'
	for i := 0; clean && i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			clean = false
		}
	}
	if clean && len(name) <= 64 {
		return name
	}
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:12])
}

// ckptSchemaVersion is the payload schema of a persisted seller checkpoint.
const ckptSchemaVersion = 1

// maxCheckpointClients caps the per-market checkpoint book: client
// identities are client-chosen input, so an unbounded book would let a
// hostile fleet grow server memory without limit. Past the cap, the book
// evicts an arbitrary flushed entry (a disk copy survives; only the hot
// cache is bounded).
const maxCheckpointClients = 1024

// ckptBook is one market's durable estimator-checkpoint registry: a
// write-back cache over the snapshot store, implementing
// wire.SellerCheckpoints. Saves land in memory (the serving hot path never
// waits on disk) and spill on flush; loads fall through to disk, which is
// how a restarted server resumes sessions it checkpointed in a previous
// life.
type ckptBook struct {
	st     *store.Store
	prefix string

	mu       sync.Mutex
	cache    map[string]*core.SellerCheckpoint
	dirty    map[string]bool
	restored int
}

func (b *ckptBook) Save(clientID string, ck *core.SellerCheckpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.cache[clientID]; !ok && len(b.cache) >= maxCheckpointClients {
		for id := range b.cache {
			if !b.dirty[id] {
				delete(b.cache, id)
				break
			}
		}
		if len(b.cache) >= maxCheckpointClients {
			// Everything resident is dirty: drop the newcomer rather than
			// lose an unflushed checkpoint.
			return
		}
	}
	b.cache[clientID] = ck
	b.dirty[clientID] = true
}

func (b *ckptBook) Load(clientID string) (*core.SellerCheckpoint, bool) {
	b.mu.Lock()
	if ck, ok := b.cache[clientID]; ok {
		b.mu.Unlock()
		return ck, true
	}
	b.mu.Unlock()

	// Cold: fall through to the snapshot store. Any failure — missing,
	// damaged, future-versioned — is a miss and the client is told to start
	// fresh; the store quarantines a damaged file so it cannot shadow the
	// fresh checkpoint the restarted session is about to write.
	var ck core.SellerCheckpoint
	if err := b.st.Restore(b.prefix+clientID, ckptSchemaVersion, func(p []byte) error {
		return gob.NewDecoder(bytes.NewReader(p)).Decode(&ck)
	}); err != nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if prior, ok := b.cache[clientID]; ok { // raced load
		return prior, true
	}
	b.cache[clientID] = &ck
	b.restored++
	return &ck, true
}

// flush spills every dirty checkpoint; entries that fail stay dirty for the
// next attempt, and so does one whose Save replaced the checkpoint while it
// was being written.
func (b *ckptBook) flush() error {
	b.mu.Lock()
	ids := make([]string, 0, len(b.dirty))
	cks := make([]*core.SellerCheckpoint, 0, len(b.dirty))
	for id := range b.dirty {
		ids = append(ids, id)
		cks = append(cks, b.cache[id])
	}
	b.mu.Unlock()

	var first error
	for i, ck := range cks {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			if first == nil {
				first = fmt.Errorf("vflmarket: flush checkpoint %q: %w", ids[i], err)
			}
			continue
		}
		if err := b.st.Save(b.prefix+ids[i], ckptSchemaVersion, buf.Bytes()); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		b.mu.Lock()
		if b.cache[ids[i]] == ck {
			delete(b.dirty, ids[i])
		}
		b.mu.Unlock()
	}
	return first
}

// clientCount reports how many client identities the book holds in memory.
func (b *ckptBook) clientCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cache)
}
