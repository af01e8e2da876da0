package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown snapshot")
	if err := s.Save("estimators/titanic/buyer-7", 3, payload); err != nil {
		t.Fatal(err)
	}
	got, v, err := s.Load("estimators/titanic/buyer-7", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got version %d payload %q", v, got)
	}
	// Overwrite is atomic and replaces the payload.
	if err := s.Save("estimators/titanic/buyer-7", 3, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _, err = s.Load("estimators/titanic/buyer-7", 5)
	if err != nil || string(got) != "v2" {
		t.Fatalf("overwrite: got %q, %v", got, err)
	}
}

func TestLoadMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, _, err := s.Load("nope", 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing snapshot: got %v, want ErrNotExist", err)
	}
}

// TestCorruptionClasses is the corruption-satellite contract: truncated,
// checksum-damaged, and future-version snapshots each fail with their own
// sentinel, so a booting server can log the cause and start cold.
func TestCorruptionClasses(t *testing.T) {
	payload := []byte("some state worth keeping")
	fresh := func(t *testing.T) (*Store, string) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save("snap", 2, payload); err != nil {
			t.Fatal(err)
		}
		return s, s.Path("snap")
	}

	t.Run("truncated", func(t *testing.T) {
		s, path := fresh(t)
		raw, _ := os.ReadFile(path)
		for _, n := range []int{0, 3, len(magic), headerLen, len(raw) - 1} {
			if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Load("snap", 2); !errors.Is(err, ErrTruncated) {
				t.Fatalf("truncated at %d bytes: got %v, want ErrTruncated", n, err)
			}
		}
	})

	t.Run("checksum", func(t *testing.T) {
		s, path := fresh(t)
		raw, _ := os.ReadFile(path)
		raw[headerLen+2] ^= 0x40 // flip one payload bit
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Load("snap", 2); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip: got %v, want ErrChecksum", err)
		}
	})

	t.Run("future-payload-version", func(t *testing.T) {
		s, _ := fresh(t)
		if _, _, err := s.Load("snap", 1); !errors.Is(err, ErrVersion) {
			t.Fatalf("payload schema 2 read with max 1: got %v, want ErrVersion", err)
		}
		// Reading with a high-enough max still works.
		if _, _, err := s.Load("snap", 2); err != nil {
			t.Fatalf("payload schema 2 read with max 2: %v", err)
		}
	})

	t.Run("future-container-version", func(t *testing.T) {
		s, path := fresh(t)
		raw, _ := os.ReadFile(path)
		// A future container version re-frames everything; simulate by
		// bumping the container field and re-checksumming is not possible
		// without the (unknown) future layout, so the whole file after the
		// version field is opaque. The reader must reject on version alone.
		raw[len(magic)] = 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Load("snap", 2); !errors.Is(err, ErrVersion) {
			t.Fatalf("future container: got %v, want ErrVersion", err)
		}
	})

	t.Run("trailing-bytes", func(t *testing.T) {
		s, path := fresh(t)
		raw, _ := os.ReadFile(path)
		raw = append(raw, "appended"...)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Load("snap", 2); !IsCorrupt(err) {
			t.Fatalf("bytes after the checksum: got %v, want a corruption error", err)
		}
		if err := s.Restore("snap", 2, func([]byte) error { return nil }); err == nil || s.Quarantined() != 1 {
			t.Fatalf("Restore = %v with %d quarantined, want an error and 1", err, s.Quarantined())
		}
	})

	t.Run("not-a-snapshot", func(t *testing.T) {
		s, path := fresh(t)
		if err := os.WriteFile(path, []byte("PK\x03\x04 definitely a zip file"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Load("snap", 2); !errors.Is(err, ErrMagic) {
			t.Fatalf("foreign file: got %v, want ErrMagic", err)
		}
	})
}

func TestNameValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, bad := range []string{"", "../escape", "a/../b", ".hidden", "a//b", "a b", "a\x00b", "ä"} {
		if err := s.Save(bad, 1, nil); err == nil {
			t.Errorf("Save(%q) accepted an invalid name", bad)
		}
	}
	for _, good := range []string{"a", "a/b/c", "A-Z_0.9"} {
		if err := s.Save(good, 1, []byte("x")); err != nil {
			t.Errorf("Save(%q): %v", good, err)
		}
	}
}

func TestList(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, name := range []string{"oracle/aa", "oracle/bb", "keys/titanic", "estimators/t/c1"} {
		if err := s.Save(name, 1, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-snapshot file is ignored.
	if err := os.WriteFile(filepath.Join(s.Dir(), "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	all, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"estimators/t/c1", "keys/titanic", "oracle/aa", "oracle/bb"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("List(\"\") = %v, want %v", all, want)
	}
	oracle, _ := s.List("oracle/")
	if !reflect.DeepEqual(oracle, []string{"oracle/aa", "oracle/bb"}) {
		t.Fatalf("List(oracle/) = %v", oracle)
	}
}

func TestRemove(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Save("gone", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("gone", 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("after Remove: %v", err)
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatalf("double Remove: %v", err)
	}
}

// TestQuarantine: a damaged snapshot is renamed aside — Load then misses
// cleanly, List never names it, the counter ticks — while the bytes
// survive for forensics. Quarantining a missing snapshot is a no-op.
func TestQuarantine(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Save("estimators/t/buyer", 1, []byte("damaged goods")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("estimators/t/buyer"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path("estimators/t/buyer") + ".corrupt"); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if _, _, err := s.Load("estimators/t/buyer", 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("load after quarantine: got %v, want ErrNotExist", err)
	}
	if all, _ := s.List(""); len(all) != 0 {
		t.Fatalf("List still names quarantined snapshots: %v", all)
	}
	if n := s.Quarantined(); n != 1 {
		t.Fatalf("Quarantined() = %d, want 1", n)
	}
	// Missing snapshot: no-op, counter unmoved.
	if err := s.Quarantine("estimators/t/buyer"); err != nil {
		t.Fatalf("quarantine of a missing snapshot: %v", err)
	}
	if n := s.Quarantined(); n != 1 {
		t.Fatalf("no-op quarantine bumped the counter to %d", n)
	}
	// Names are validated like every other store entry point.
	if err := s.Quarantine("../escape"); err == nil {
		t.Fatal("Quarantine accepted a path-escaping name")
	}
}

// TestRestoreDisposition: Restore hands a verified payload to decode, and
// quarantines (and counts) both a damaged frame and a payload decode
// rejects; a missing snapshot or a newer schema is a miss left in place.
func TestRestoreDisposition(t *testing.T) {
	errUndecodable := errors.New("payload does not decode")
	for _, tc := range []struct {
		name        string
		plant       func(s *Store, name string) error
		decodeErr   error
		wantErr     error // nil: Restore succeeds
		quarantined bool
	}{
		{"decodes", saveV(1), nil, nil, false},
		{"undecodable", saveV(1), errUndecodable, errUndecodable, true},
		{"torn-frame", func(s *Store, name string) error {
			if err := os.MkdirAll(filepath.Dir(s.Path(name)), 0o755); err != nil {
				return err
			}
			return os.WriteFile(s.Path(name), []byte("not a snapshot"), 0o644)
		}, nil, ErrMagic, true},
		{"future-schema", saveV(2), nil, ErrVersion, false},
		{"missing", func(*Store, string) error { return nil }, nil, ErrNotExist, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := Open(t.TempDir())
			const name = "keys/m"
			if err := tc.plant(s, name); err != nil {
				t.Fatal(err)
			}
			var got []byte
			err := s.Restore(name, 1, func(p []byte) error {
				got = append([]byte(nil), p...)
				return tc.decodeErr
			})
			if tc.wantErr == nil {
				if err != nil || string(got) != "payload" {
					t.Fatalf("Restore = %v, payload %q", err, got)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Restore = %v, want %v", err, tc.wantErr)
			}
			_, sidecar := os.Stat(s.Path(name) + ".corrupt")
			if (sidecar == nil) != tc.quarantined {
				t.Fatalf("quarantine sidecar present = %v, want %v", sidecar == nil, tc.quarantined)
			}
			if want := map[bool]uint64{false: 0, true: 1}[tc.quarantined]; s.Quarantined() != want {
				t.Fatalf("Quarantined() = %d, want %d", s.Quarantined(), want)
			}
		})
	}
}

// saveV plants a well-framed snapshot of the given payload schema.
func saveV(version uint32) func(*Store, string) error {
	return func(s *Store, name string) error { return s.Save(name, version, []byte("payload")) }
}

// TestGoldenFormat pins the on-disk byte layout to a checked-in fixture:
// if the framing ever changes (magic, header layout, checksum polynomial),
// this test fails and forces a deliberate container-version bump instead of
// a silent format break that would strand every deployed state directory.
func TestGoldenFormat(t *testing.T) {
	const goldenPayload = "golden snapshot payload v1\n"
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-v1.snap"))
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}

	// Today's reader must load yesterday's bytes.
	payload, version, err := decode(raw, "golden-v1", 7)
	if err != nil {
		t.Fatalf("decode golden fixture: %v", err)
	}
	if string(payload) != goldenPayload || version != 7 {
		t.Fatalf("golden decode: version %d payload %q", version, payload)
	}

	// Today's writer must reproduce yesterday's bytes, bit for bit.
	s, _ := Open(t.TempDir())
	if err := s.Save("golden", 7, []byte(goldenPayload)); err != nil {
		t.Fatal(err)
	}
	now, _ := os.ReadFile(s.Path("golden"))
	if !bytes.Equal(now, raw) {
		t.Fatalf("snapshot framing drifted from the golden fixture:\n got %x\nwant %x", now, raw)
	}
}

// Remove deletes a snapshot. Removing a snapshot that does not exist is not
// an error.
func (s *Store) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := os.Remove(s.Path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: remove %s: %w", name, err)
	}
	return nil
}
