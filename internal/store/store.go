// Package store is the process-wide durable snapshot subsystem: a small,
// versioned, checksummed file format plus an atomic-rename backend that the
// service's long-lived state — trained estimators, valuation memos, Paillier
// keys — persists through restarts with.
//
// Every snapshot is one file under the store's directory:
//
//	8 bytes  magic "VFLMSNAP"
//	4 bytes  container format version (little-endian; currently 1)
//	4 bytes  payload schema version (little-endian; chosen by the client)
//	8 bytes  payload length (little-endian)
//	N bytes  payload (opaque to the store; clients typically gob-encode)
//	4 bytes  CRC-32C over everything above
//
// Writes go to a temporary file in the same directory, are fsynced, and are
// renamed into place, so a crash mid-write never corrupts the previous
// snapshot. Reads verify magic, versions, length, and checksum and fail with
// a distinct sentinel error per corruption class (ErrTruncated, ErrChecksum,
// ErrVersion, ErrMagic). Callers read state back through Restore, which
// also quarantines damaged files, and treat any failure as a cold start, so
// a damaged or future-format file degrades service state to "freshly
// booted", never to a crash.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// Sentinel errors distinguishing why a snapshot could not be loaded. All of
// them (except ErrNotExist) mean "the file exists but is unusable"; callers
// log and boot cold.
var (
	// ErrNotExist reports that no snapshot with the given name exists.
	ErrNotExist = errors.New("store: snapshot does not exist")
	// ErrTruncated reports a snapshot whose length disagrees with its
	// header — a partial write from a crashed process, a torn copy, or
	// bytes appended after the checksum.
	ErrTruncated = errors.New("store: snapshot truncated")
	// ErrChecksum reports a snapshot whose CRC-32C does not match its
	// contents — bit rot or an out-of-band edit.
	ErrChecksum = errors.New("store: snapshot checksum mismatch")
	// ErrVersion reports a snapshot written by a newer container format or
	// a newer payload schema than the reader understands.
	ErrVersion = errors.New("store: snapshot version unsupported")
	// ErrMagic reports a file that is not a snapshot at all.
	ErrMagic = errors.New("store: not a snapshot file")
)

const (
	magic = "VFLMSNAP"
	// containerVersion is the version of the framing itself (header layout,
	// checksum algorithm), independent of any payload schema.
	containerVersion = 1
	headerLen        = len(magic) + 4 + 4 + 8
	trailerLen       = 4
	// ext is appended to every snapshot name on disk so stray files in a
	// state directory are never mistaken for snapshots.
	ext = ".snap"
)

// castagnoli is the CRC-32C table (same polynomial iSCSI and ext4 use;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is a directory of named snapshots. Names are slash-separated paths
// of filename-safe segments ("estimators/titanic/buyer-7"); the store maps
// them to files under its root. A Store is safe for concurrent use by
// multiple goroutines as long as distinct names are written by distinct
// writers; two concurrent writers of the same name race benignly (one
// complete snapshot wins the rename).
type Store struct {
	dir string

	quarantined atomic.Uint64
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validName checks a snapshot name: one or more "/"-separated segments of
// [A-Za-z0-9._-], none empty, none ".." or starting with a dot — so names
// can never escape the store directory or collide with temp files.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty snapshot name")
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" {
			return fmt.Errorf("store: snapshot name %q has an empty segment", name)
		}
		if strings.HasPrefix(seg, ".") {
			return fmt.Errorf("store: snapshot name %q has a dot-prefixed segment", name)
		}
		for _, c := range seg {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			case c == '.', c == '_', c == '-':
			default:
				return fmt.Errorf("store: snapshot name %q has invalid character %q", name, c)
			}
		}
	}
	return nil
}

// Path returns the file path a snapshot name maps to. The file may or may
// not exist.
func (s *Store) Path(name string) string {
	return filepath.Join(s.dir, filepath.FromSlash(name)+ext)
}

// Save atomically writes a snapshot: the payload is framed with the given
// payload schema version, written to a temp file in the same directory,
// fsynced, and renamed over any previous snapshot of that name.
func (s *Store) Save(name string, version uint32, payload []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	buf := encode(version, payload)
	path := s.Path(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: save %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: save %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save %s: %w", name, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save %s: %w", name, err)
	}
	// Best-effort directory sync so the rename itself survives power loss.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and verifies a snapshot, returning its payload. maxVersion is
// the newest payload schema the caller understands; snapshots with a newer
// payload version (or another container format) fail with ErrVersion.
// Missing snapshots fail with ErrNotExist; damaged ones with ErrTruncated,
// ErrChecksum, or ErrMagic.
func (s *Store) Load(name string, maxVersion uint32) (payload []byte, version uint32, err error) {
	if err := validName(name); err != nil {
		return nil, 0, err
	}
	raw, err := os.ReadFile(s.Path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, 0, fmt.Errorf("store: load %s: %w", name, err)
	}
	return decode(raw, name, maxVersion)
}

// encode frames a payload as one snapshot image: decode's inverse.
func encode(version uint32, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+trailerLen)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, containerVersion)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decode verifies one framed snapshot image. It accepts exactly the images
// encode writes: the header's length must account for every byte between
// the header and the checksum, so bytes appended after the checksum are
// damage, not slack.
func decode(raw []byte, name string, maxVersion uint32) ([]byte, uint32, error) {
	if len(raw) < len(magic) {
		return nil, 0, fmt.Errorf("%w: %s: %d bytes", ErrTruncated, name, len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w: %s", ErrMagic, name)
	}
	if len(raw) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("%w: %s: %d bytes", ErrTruncated, name, len(raw))
	}
	cv := binary.LittleEndian.Uint32(raw[len(magic):])
	pv := binary.LittleEndian.Uint32(raw[len(magic)+4:])
	n := binary.LittleEndian.Uint64(raw[len(magic)+8:])
	if cv != containerVersion {
		return nil, 0, fmt.Errorf("%w: %s: container format %d, want %d", ErrVersion, name, cv, containerVersion)
	}
	if n != uint64(len(raw)-headerLen-trailerLen) {
		return nil, 0, fmt.Errorf("%w: %s: header promises %d payload bytes, file has %d",
			ErrTruncated, name, n, len(raw)-headerLen-trailerLen)
	}
	body := raw[:headerLen+int(n)]
	sum := binary.LittleEndian.Uint32(raw[headerLen+int(n):])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, fmt.Errorf("%w: %s", ErrChecksum, name)
	}
	if pv > maxVersion {
		return nil, 0, fmt.Errorf("%w: %s: payload schema %d > %d", ErrVersion, name, pv, maxVersion)
	}
	return body[headerLen:], pv, nil
}

// IsCorrupt reports whether a Load error means the snapshot file exists
// but is damaged — truncated, checksum mismatch, or not a snapshot at
// all. Version errors are NOT corruption: the file may be a newer
// process's perfectly good data, and quarantining it would destroy state
// a rollback still needs. Absence is not corruption either.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrMagic)
}

// Restore loads the named snapshot and hands its payload to decode: the one
// way durable state is read back. A missing snapshot, or one written by a
// newer format or schema, is a plain miss and is left in place. A damaged
// one (a torn or bit-rotted frame, or a payload decode rejects) is
// quarantined and logged, so the fresh snapshot the caller writes next is
// not shadowed by it. Every miss returns an error, which the caller treats
// as a cold start. A decoded record that belongs to another configuration
// is the caller's plain miss: decode should accept it and let the caller
// ignore it.
func (s *Store) Restore(name string, maxVersion uint32, decode func(payload []byte) error) error {
	payload, _, err := s.Load(name, maxVersion)
	switch {
	case err == nil:
		derr := decode(payload)
		if derr == nil {
			return nil
		}
		err = fmt.Errorf("store: decode %s: %w", name, derr)
	case !IsCorrupt(err):
		return err
	}
	if qerr := s.Quarantine(name); qerr != nil {
		log.Printf("store: snapshot %s damaged (%v); quarantine failed: %v", name, err, qerr)
	} else {
		log.Printf("store: quarantined damaged snapshot %s: %v", name, err)
	}
	return err
}

// Quarantine moves a damaged snapshot aside instead of deleting it: the
// file is renamed to <file>.corrupt — a suffix Load and List never match,
// so the next load of that name is a clean ErrNotExist miss — while the
// damaged bytes survive for forensics. A repeat quarantine of the same
// name overwrites the previous sidecar; quarantining a snapshot that does
// not exist is a no-op.
func (s *Store) Quarantine(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	path := s.Path(name)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: quarantine %s: %w", name, err)
	}
	s.quarantined.Add(1)
	return nil
}

// Quarantined reports how many snapshots this store has quarantined since
// it opened.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// List returns the names of every snapshot whose name starts with prefix
// (pass "" for all), in lexical order. Files that do not carry the snapshot
// extension are ignored.
func (s *Store) List(prefix string) ([]string, error) {
	var names []string
	root := s.dir
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ext) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.ToSlash(rel), ext)
		if validName(name) != nil {
			return nil
		}
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	sort.Strings(names)
	return names, nil
}
