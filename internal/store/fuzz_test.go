package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzSnapshotDecode from snapshotCorpus")

// fuzzMaxVersion is the payload schema FuzzSnapshotDecode reads with: the
// golden fixture's, so a frame one schema newer is a version miss.
const fuzzMaxVersion = 7

// snapshotCorpus is the FuzzSnapshotDecode seed set: the golden fixture,
// a sample of each corruption class the reader distinguishes, both version
// misses, and the fixture with bytes appended after its checksum.
func snapshotCorpus(t testing.TB) [][]byte {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-v1.snap"))
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	clone := func() []byte { return append([]byte(nil), golden...) }
	flipped := clone()
	flipped[headerLen+2] ^= 0x40
	futureContainer := clone()
	futureContainer[len(magic)] = 0xFF
	return [][]byte{
		golden,
		golden[:len(magic)-1],
		golden[:headerLen],
		golden[:len(golden)-1],
		flipped,
		encode(fuzzMaxVersion+1, []byte("a newer schema")),
		futureContainer,
		[]byte("PK\x03\x04 definitely a zip file"),
		append(clone(), "appended"...),
		nil,
	}
}

// FuzzSnapshotDecode feeds arbitrary file images to the snapshot reader.
// It must never panic; every refusal must be a corruption class or a
// version miss, the two dispositions Restore tells apart; and whatever it
// accepts must be exactly the image Save writes for that payload and
// version. Run with -update to rewrite the committed seed corpus.
func FuzzSnapshotDecode(f *testing.F) {
	if *updateCorpus {
		writeCorpus(f, snapshotCorpus(f))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, version, err := decode(raw, "fuzz", fuzzMaxVersion)
		if err != nil {
			if !IsCorrupt(err) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error %v is neither corruption nor a version miss", err)
			}
			return
		}
		if again := encode(version, payload); !bytes.Equal(again, raw) {
			t.Fatalf("accepted image does not re-save identically:\n got %x\nwant %x", again, raw)
		}
	})
}

// writeCorpus commits seeds as FuzzSnapshotDecode's corpus in the go test
// fuzz format.
func writeCorpus(t testing.TB, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
