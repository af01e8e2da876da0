package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/envelope-v1.golden and the FuzzEnvelopeDecode seed corpus")

// everyKindEnvelopes holds one envelope of every Kind with every payload
// field set to a non-zero value, in Kind order. It is the content of the
// layout golden, so changing it changes the golden.
func everyKindEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindHello, SID: 1, Hello: &Hello{
			Version: ProtocolVersion, Market: "titanic", Markets: []string{"titanic", "credit"},
			Modes:   []string{ModePerfect, ModeImperfect},
			Bundles: []BundleInfo{{ID: 0, Features: []int{0, 2}}, {ID: 1, Features: []int{1, 3, 300}}},
			Secure:  true, PubN: []byte{0xC3, 0x01, 0xFF}, Resumed: 12,
		}},
		{Kind: KindQuote, SID: 2, Quote: &Quote{Round: 3, Rate: 1.25, Base: 0.5, High: 2.75, U: 1000, Target: 0.125}},
		{Kind: KindOffer, SID: 2, Offer: &Offer{BundleID: 4, Features: []int{1, 3}, Accept: true, Fail: true,
			Reason: "Case 1", TargetBundleID: -7}},
		{Kind: KindSettle, SID: 2, Settle: &Settle{Round: 3, Decision: DecisionAccept, Gain: 0.1119,
			EncPayment: []byte{9, 8, 7}}},
		{Kind: KindClientHello, Client: &ClientHello{Version: ProtocolVersion, Market: "credit", Mode: ModeImperfect,
			Imperfect: &ImperfectHello{Seed: 1 << 63, Target: 0.25, ExplorationRounds: 60, ReplaySteps: 8,
				ClientID: "buyer-7", ResumeRound: 5},
			ListOnly: true, StatsOnly: true}},
		{Kind: KindError, SID: 3, Err: &ErrorMsg{Msg: "unknown market \"nasdaq\""}},
		{Kind: KindAck, SID: 2, Ack: &Ack{Round: 3, DataMSE: 0.0625}},
		{Kind: KindBusy, SID: 4, Err: &ErrorMsg{Msg: "session pool saturated"}},
		{Kind: KindRedirect, SID: 5, Redirect: &Redirect{Market: "titanic", Addr: "10.1.2.3:7070", Epoch: 17}},
		{Kind: KindStats, SID: 6, Stats: &StatsReport{
			Server: ServerStats{Accepted: 12, Sessions: 9, Closed: 7, Failed: 1, Rejected: 2, Busy: 2, Redirected: 3,
				Evicted: 1, Dropped: 4, Watchdog: 1, Quarantined: 1, Active: -2},
			Markets: map[string]MarketStats{
				"titanic": {Sessions: 6, ImperfectSessions: 2, ResumedSessions: 1, ActiveSessions: 1,
					OracleTrainings: 4, OracleCachedGains: 32, OracleHits: 100, OracleCoalesced: 3,
					OracleRestored: 5, CheckpointedClients: 2},
				"credit": {Sessions: 1},
			},
			Epoch: 17,
		}},
		{Kind: KindOpen, SID: 7, Client: &ClientHello{Version: ProtocolVersion, Market: "titanic"}},
		{Kind: KindCancel, SID: 7},
	}
}

func encodeOne(e *Envelope) []byte { return appendEnvelope(nil, e) }

// TestEnvelopeRoundTripEveryKind: every Kind and every payload field
// survives the binary encoding, both as a bare payload and through the
// framed codec, reflect.DeepEqual.
func TestEnvelopeRoundTripEveryKind(t *testing.T) {
	envs := everyKindEnvelopes()
	if len(envs) != int(KindCancel) {
		t.Fatalf("sample set has %d envelopes, want one per Kind (%d)", len(envs), KindCancel)
	}
	for i, want := range envs {
		if want.Kind != Kind(i+1) {
			t.Fatalf("sample %d is %v, want Kind order", i, want.Kind)
		}
		got, err := decodeEnvelope(encodeOne(want))
		if err != nil {
			t.Fatalf("%v: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v round trip:\ngot  %+v\nwant %+v", want.Kind, got, want)
		}
	}

	// Through the framed codec too: with a default reader every frame is
	// decoded in place, with a 16-byte reader nearly every frame is larger
	// than the buffer and takes the copying path.
	stream := validFrameStream(t, CodecBinary, envs...)
	for _, size := range []int{4096, 16} {
		fc, err := newFramedCodec(CodecBinary, bufio.NewReaderSize(bytes.NewReader(stream), size), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range envs {
			got, err := fc.Recv()
			if err != nil {
				t.Fatalf("reader size %d: framed recv %v: %v", size, want.Kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reader size %d: framed %v round trip:\ngot  %+v\nwant %+v", size, want.Kind, got, want)
			}
		}
		if _, err := fc.Recv(); err != io.EOF {
			t.Fatalf("reader size %d: after the last frame: err = %v, want io.EOF", size, err)
		}
	}
}

// TestEnvelopeFloatBitsExact: floats cross as their IEEE-754 bits, so a NaN
// payload, negative zero, the infinities and a subnormal all arrive with
// the identical bit pattern.
func TestEnvelopeFloatBitsExact(t *testing.T) {
	specials := []uint64{
		0x7FF8_0000_DEAD_BEEF, // quiet NaN with a payload
		0xFFF0_0000_0000_0001, // signalling NaN, sign bit set
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1, // smallest subnormal
		math.Float64bits(math.MaxFloat64),
	}
	for _, bits := range specials {
		f := math.Float64frombits(bits)
		e := &Envelope{Kind: KindQuote, Quote: &Quote{Rate: f, Base: f, High: f, U: f, Target: f}}
		got, err := decodeEnvelope(encodeOne(e))
		if err != nil {
			t.Fatalf("%#016x: %v", bits, err)
		}
		q := got.Quote
		for _, v := range []float64{q.Rate, q.Base, q.High, q.U, q.Target} {
			if math.Float64bits(v) != bits {
				t.Fatalf("float bits %#016x came back as %#016x", bits, math.Float64bits(v))
			}
		}
		for _, e := range []*Envelope{
			{Kind: KindSettle, Settle: &Settle{Gain: f}},
			{Kind: KindAck, Ack: &Ack{DataMSE: f}},
			{Kind: KindClientHello, Client: &ClientHello{Imperfect: &ImperfectHello{Target: f}}},
		} {
			got, err := decodeEnvelope(encodeOne(e))
			if err != nil {
				t.Fatal(err)
			}
			var v float64
			switch {
			case got.Settle != nil:
				v = got.Settle.Gain
			case got.Ack != nil:
				v = got.Ack.DataMSE
			default:
				v = got.Client.Imperfect.Target
			}
			if math.Float64bits(v) != bits {
				t.Fatalf("%v: float bits %#016x came back as %#016x", e.Kind, bits, math.Float64bits(v))
			}
		}
	}
}

// TestEnvelopeNilVersusEmpty: nil and empty slices and maps stay distinct,
// so an envelope compares DeepEqual to what its sender built.
func TestEnvelopeNilVersusEmpty(t *testing.T) {
	for _, want := range []*Envelope{
		{Kind: KindHello, Hello: &Hello{}},
		{Kind: KindHello, Hello: &Hello{Markets: []string{}, Modes: []string{""}, Bundles: []BundleInfo{},
			PubN: []byte{}}},
		{Kind: KindHello, Hello: &Hello{Bundles: []BundleInfo{{ID: 1}, {ID: 2, Features: []int{}}}}},
		{Kind: KindOffer, Offer: &Offer{Features: []int{}}},
		{Kind: KindOffer, Offer: &Offer{}},
		{Kind: KindSettle, Settle: &Settle{EncPayment: []byte{}}},
		{Kind: KindStats, Stats: &StatsReport{}},
		{Kind: KindStats, Stats: &StatsReport{Markets: map[string]MarketStats{}}},
		{Kind: KindClientHello, Client: &ClientHello{Imperfect: &ImperfectHello{}}},
		{Kind: KindError, Err: &ErrorMsg{}},
		{},
	} {
		got, err := decodeEnvelope(encodeOne(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\ngot  %#v\nwant %#v", got, want)
		}
	}
}

// TestEnvelopeStatsBytesDeterministic: map iteration order is random, but
// a StatsReport encodes to the same bytes every time, keys ascending.
func TestEnvelopeStatsBytesDeterministic(t *testing.T) {
	markets := make(map[string]MarketStats)
	for i := 0; i < 40; i++ {
		markets[fmt.Sprintf("m%02d", 39-i)] = MarketStats{Sessions: uint64(i)}
	}
	e := &Envelope{Kind: KindStats, Stats: &StatsReport{Markets: markets}}
	first := encodeOne(e)
	for i := 0; i < 20; i++ {
		if got := encodeOne(e); !bytes.Equal(got, first) {
			t.Fatal("StatsReport encoding depends on map iteration order")
		}
	}
	if i, j := bytes.Index(first, []byte("m00")), bytes.Index(first, []byte("m39")); i < 0 || j < i {
		t.Fatalf("market keys not in ascending order (m00 at %d, m39 at %d)", i, j)
	}

	// A hand-built payload listing markets out of order is refused, so every
	// decodable report has exactly one encoding.
	swapped := bytes.Replace(bytes.Replace(first, []byte("m00"), []byte("mXX"), 1), []byte("m01"), []byte("m00"), 1)
	if _, err := decodeEnvelope(swapped); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("out-of-order markets: err = %v, want ErrBadFrame", err)
	}
}

// TestEnvelopeRejectsMalformed: every structural violation is an
// *EnvelopeError wrapping ErrBadFrame — never a panic, never a partial
// envelope.
func TestEnvelopeRejectsMalformed(t *testing.T) {
	quote := encodeOne(&Envelope{Kind: KindQuote, Quote: &Quote{Round: 1}})
	offer := encodeOne(&Envelope{Kind: KindOffer, Offer: &Offer{Accept: true}})
	acceptAt := bytes.LastIndexByte(offer, 1) // the Accept byte
	cases := map[string][]byte{
		"empty":            nil,
		"trailing byte":    append(append([]byte(nil), quote...), 0),
		"truncated float":  quote[:len(quote)-1],
		"unknown mask bit": {byte(KindQuote) << 1, 0, 0x80, 0x04},
		"bool byte 2":      append(append(append([]byte(nil), offer[:acceptAt]...), 2), offer[acceptAt+1:]...),
		"varint overflow":  bytes.Repeat([]byte{0xFF}, 11),
		// Hello with Markets claiming 2^40 strings in a 20-byte payload.
		"oversize count": append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0},
			append(appendCount(nil, 1<<40, false), bytes.Repeat([]byte{0}, 12)...)...),
	}
	for name, payload := range cases {
		e, err := decodeEnvelope(payload)
		var ee *EnvelopeError
		if e != nil || !errors.As(err, &ee) || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %+v, %v; want a nil envelope and an *EnvelopeError", name, e, err)
		}
	}
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
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range payloads {
		if _, err := decodeEnvelope(p); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "count") {
			t.Fatalf("payload %d: err = %v, want a count refusal", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing oversize counts allocated %d bytes", grew)
	}
}

// TestEnvelopeGolden pins the byte layout: each sample envelope's encoding
// must match testdata/envelope-v1.golden, one "kind hex" line per
// envelope. The file doubles as test vectors for implementations of the
// layout in other languages. Run with -update after an intentional layout
// change; that also regenerates the FuzzEnvelopeDecode seed corpus.
func TestEnvelopeGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Binary envelope layout v1: one envelope per line, \"<kind> <frame payload hex>\".\n")
	for _, e := range everyKindEnvelopes() {
		fmt.Fprintf(&b, "%v %s\n", e.Kind, hex.EncodeToString(encodeOne(e)))
	}
	path := filepath.Join("testdata", "envelope-v1.golden")
	if *updateGolden {
		writeEnvelopeCorpus(t) // creates testdata/ on the way
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	if b.String() != string(want) {
		t.Fatalf("binary envelope layout drifted from %s:\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
	// And the committed vectors decode to the sample envelopes.
	envs := everyKindEnvelopes()
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")[1:]
	for i, line := range lines {
		raw, err := hex.DecodeString(line[strings.IndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeEnvelope(raw)
		if err != nil || !reflect.DeepEqual(got, envs[i]) {
			t.Fatalf("golden line %d decodes to %+v, %v", i+1, got, err)
		}
	}
}

// envelopeCorpus is the FuzzEnvelopeDecode seed set: one valid payload of
// every Kind, each torn in the middle, and the oversize-count payloads.
func envelopeCorpus() [][]byte {
	var seeds [][]byte
	for _, e := range everyKindEnvelopes() {
		p := encodeOne(e)
		seeds = append(seeds, p, p[:len(p)/2])
	}
	huge := appendCount(nil, 1<<40, false)
	seeds = append(seeds,
		append(append([]byte{byte(KindHello) << 1, 0, bitHello, 0, 0}, huge...), 0, 0, 0),
		append(append([]byte{byte(KindOffer) << 1, 0, bitOffer, 0}, huge...), 1, 2, 3),
		append(append(append([]byte{byte(KindStats) << 1, 0, 0x80, 0x02}, make([]byte, 12)...), huge...), 0),
	)
	return seeds
}

// writeEnvelopeCorpus commits envelopeCorpus in the go test fuzz format.
func writeEnvelopeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEnvelopeDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range envelopeCorpus() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzEnvelopeDecode feeds arbitrary frame payloads to the binary decoder.
// It must never panic, and whatever it accepts must re-encode to bytes
// that decode again and re-encode identically — the decoder and encoder
// agree on one layout.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEnvelope(data)
		if err != nil {
			if e != nil || !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v with envelope %+v; want a nil envelope and ErrBadFrame", err, e)
			}
			return
		}
		first := encodeOne(e)
		again, err := decodeEnvelope(first)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if second := encodeOne(again); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%x\n%x", first, second)
		}
	})
}
