//go:build !386 && !arm && !mips && !mipsle

// Counts of 2^40 and 2^50 overflow a 32-bit int, so the envelope cases that
// claim them build on 64-bit architectures only.

package wire

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func init() {
	huge := appendCount(nil, 1<<40, false)
	oversizeCountSeeds = [][]byte{
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0}, huge...), 0, 0, 0),
		append(append([]byte{byte(KindOffer) << 1, 0, bitOffer, 0}, huge...), 1, 2, 3),
		append(append(append([]byte{byte(KindStats) << 1, 0, 0x80, 0x02}, make([]byte, 12)...), huge...), 0),
	}
}

// TestEnvelopeRejectsOversizeCount: a Hello whose Markets claims 2^40
// strings in a 20-byte payload is malformed, as TestEnvelopeRejectsMalformed
// checks.
func TestEnvelopeRejectsOversizeCount(t *testing.T) {
	checkMalformed(t, "oversize count", append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0},
		append(appendCount(nil, 1<<40, false), bytes.Repeat([]byte{0}, 12)...)...))
}

// TestEnvelopeCountsCappedBeforeAlloc: a count the frame cannot hold is
// refused before anything is allocated for it, for every counted field.
func TestEnvelopeCountsCappedBeforeAlloc(t *testing.T) {
	huge := appendCount(nil, 1<<50, false)
	pad := bytes.Repeat([]byte{0}, 64)
	payloads := [][]byte{
		// Hello.Markets, Hello.Modes, Hello.Bundles, Hello.PubN
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0}, huge...), pad...),
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0, 0}, huge...), pad...),
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0, 0, 0}, huge...), pad...),
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0, 0, 0, 0, 0}, huge...), pad...),
		// Offer.Features, Settle.EncPayment, StatsReport.Markets
		append(append([]byte{byte(KindOffer) << 1, 0, bitOffer, 0}, huge...), pad...),
		append(append(append([]byte{byte(KindSettle) << 1, 0, bitSettle, 0, 0}, make([]byte, 8)...), huge...), pad...),
		append(append(append([]byte{byte(KindStats) << 1, 0, 0x80, 0x02}, make([]byte, 12)...), huge...), pad...),
		// Offer.Features claiming 12 ints, which would fit the inline
		// array, with 3 bytes left.
		append(append([]byte{byte(KindOffer) << 1, 0, bitOffer, 0}, appendCount(nil, 12, false)...), 2, 4, 6),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range payloads {
		if _, err := decodeEnvelope(p, nil); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "count") {
			t.Fatalf("payload %d: err = %v, want a count refusal", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing oversize counts allocated %d bytes", grew)
	}
}
