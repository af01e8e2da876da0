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
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/envelope-v1.golden and the FuzzEnvelopeDecode, FuzzHandshake and FuzzAdmitImperfect seed corpora")

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
		{Kind: KindSettle, SID: 2, Settle: &Settle{Round: 3, Decision: core.SettleAccept, Gain: 0.1119,
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
		got, err := decodeEnvelope(encodeOne(want), nil)
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
		got, err := decodeEnvelope(encodeOne(e), nil)
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
			got, err := decodeEnvelope(encodeOne(e), nil)
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
		got, err := decodeEnvelope(encodeOne(want), nil)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\ngot  %#v\nwant %#v", got, want)
		}
	}
}

// offerWith returns a per-round Offer envelope carrying n features, or nil
// features for n < 0. Like a live round's Offer it has no Reason, whose
// decoded string would be an allocation of its own.
func offerWith(n int) *Envelope {
	o := &Offer{BundleID: 9, Accept: true, TargetBundleID: 2}
	if n >= 0 {
		o.Features = make([]int, n)
		for i := range o.Features {
			o.Features[i] = 3*i + 1 - n
		}
	}
	return &Envelope{Kind: KindOffer, SID: 5, Offer: o}
}

// TestEnvelopeOfferFeatures: an Offer's features decode into the envelope's
// inline array up to its capacity and into their own array past it, and
// either way the envelope compares DeepEqual to the sent one and
// re-encodes to the same bytes: nil, empty, one, a full inline array and
// one past it.
func TestEnvelopeOfferFeatures(t *testing.T) {
	for _, n := range []int{-1, 0, 1, offerInline, offerInline + 1} {
		want := offerWith(n)
		raw := encodeOne(want)
		got, err := decodeEnvelope(raw, nil)
		if err != nil {
			t.Fatalf("%d features: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d features round trip:\ngot  %#v\nwant %#v", n, got.Offer, want.Offer)
		}
		if again := encodeOne(got); !bytes.Equal(again, raw) {
			t.Fatalf("%d features re-encode:\n%x\n%x", n, again, raw)
		}
	}
}

// TestEnvelopeOfferDecodeAllocatesOnce: a per-round Offer is one
// allocation, its features included, while they fit the inline array.
func TestEnvelopeOfferDecodeAllocatesOnce(t *testing.T) {
	for n, want := range map[int]float64{0: 1, 3: 1, offerInline: 1, offerInline + 1: 2} {
		raw := encodeOne(offerWith(n))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodeEnvelope(raw, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("decoding an Offer with %d features allocates %v times, want %v", n, allocs, want)
		}
	}
}

// helloListing returns a Hello envelope listing n bundles of three
// features each.
func helloListing(n int) *Envelope {
	bs := make([]BundleInfo, n)
	for i := range bs {
		bs[i] = BundleInfo{ID: i, Features: []int{i, i + 1, i + 2}}
	}
	return &Envelope{Kind: KindHello, Hello: &Hello{Version: 6, Market: "m", Bundles: bs}}
}

// TestEnvelopeHelloListingOneBackingArray: a Hello's bundle features
// decode into one backing array, so a listing's allocations do not grow
// with its bundle count, and each bundle's features are capped at their
// own length, so an append to one leaves the next intact.
func TestEnvelopeHelloListingOneBackingArray(t *testing.T) {
	allocs := func(n int) float64 {
		raw := encodeOne(helloListing(n))
		return testing.AllocsPerRun(20, func() {
			if _, err := decodeEnvelope(raw, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(32); many != one {
		t.Errorf("decoding a Hello of 32 bundles allocates %v times, of one bundle %v", many, one)
	}
	want := helloListing(32)
	got, err := decodeEnvelope(encodeOne(want), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %#v\nwant %#v", got.Hello, want.Hello)
	}
	bs := got.Hello.Bundles
	_ = append(bs[0].Features, 99, 98, 97)
	if !reflect.DeepEqual(bs[1], want.Hello.Bundles[1]) {
		t.Fatalf("an append to bundle 0's features changed bundle 1: %+v", bs[1])
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
	if _, err := decodeEnvelope(swapped, nil); !errors.Is(err, ErrBadFrame) {
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
	}
	for name, payload := range cases {
		checkMalformed(t, name, payload)
	}
}

// checkMalformed fails unless payload decodes to a nil envelope and an
// *EnvelopeError wrapping ErrBadFrame.
func checkMalformed(t *testing.T, name string, payload []byte) {
	t.Helper()
	e, err := decodeEnvelope(payload, nil)
	var ee *EnvelopeError
	if e != nil || !errors.As(err, &ee) || !errors.Is(err, ErrBadFrame) {
		t.Errorf("%s: got %+v, %v; want a nil envelope and an *EnvelopeError", name, e, err)
	}
}

// TestEnvelopeGolden pins the byte layout: each sample envelope's encoding
// must match testdata/envelope-v1.golden, one "kind hex" line per
// envelope. The file doubles as test vectors for implementations of the
// layout in other languages. Run with -update after an intentional layout
// change; that also regenerates the FuzzEnvelopeDecode, FuzzHandshake and
// FuzzAdmitImperfect seed corpora.
func TestEnvelopeGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Binary envelope layout v1: one envelope per line, \"<kind> <frame payload hex>\".\n")
	for _, e := range everyKindEnvelopes() {
		fmt.Fprintf(&b, "%v %s\n", e.Kind, hex.EncodeToString(encodeOne(e)))
	}
	path := filepath.Join("testdata", "envelope-v1.golden")
	if *updateGolden {
		writeCorpus(t, "FuzzEnvelopeDecode", envelopeCorpus()) // creates testdata/ on the way
		writeCorpus(t, "FuzzHandshake", handshakeCorpus(t))
		writeAdmitCorpus(t, admitCorpus(t))
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
		got, err := decodeEnvelope(raw, nil)
		if err != nil || !reflect.DeepEqual(got, envs[i]) {
			t.Fatalf("golden line %d decodes to %+v, %v", i+1, got, err)
		}
	}
}

// oversizeCountSeeds are the FuzzEnvelopeDecode seeds whose counts claim
// 2^40 elements; they are set on 64-bit architectures only
// (envelope_64bit_test.go), so -update writes the committed corpus there.
var oversizeCountSeeds [][]byte

// envelopeCorpus is the FuzzEnvelopeDecode seed set: one valid payload of
// every Kind, each torn in the middle, the oversize-count payloads, and
// the two sides of an Offer's inline features array.
func envelopeCorpus() [][]byte {
	var seeds [][]byte
	for _, e := range everyKindEnvelopes() {
		p := encodeOne(e)
		seeds = append(seeds, p, p[:len(p)/2])
	}
	seeds = append(seeds, oversizeCountSeeds...)
	seeds = append(seeds,
		// Offer features past the inline array, and an Offer claiming 20
		// ints with 5 bytes left.
		encodeOne(offerWith(offerInline+1)),
		append(append([]byte{byte(KindOffer) << 1, 0, bitOffer, 0}, appendCount(nil, 20, false)...), 1, 2, 3, 4, 5),
	)
	return seeds
}

// writeCorpus commits seeds as the named fuzz target's corpus in the go
// test fuzz format.
func writeCorpus(t *testing.T, target string, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", target)
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

// FuzzEnvelopeDecode feeds arbitrary frame payloads to the binary decoder.
// It must never panic, and whatever it accepts must re-encode to bytes
// that decode again and re-encode identically — the decoder and encoder
// agree on one layout. Each payload is decoded onto the heap and into a
// session's receive boxes: both must agree, and a payload that fails
// leaves every box free.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEnvelope(data, nil)
		var boxes envBoxes
		be, berr := decodeEnvelope(data, func(uint64) *envBoxes { return &boxes })
		switch {
		case (err == nil) != (berr == nil):
			t.Fatalf("heap decode error %v, box decode error %v", err, berr)
		case berr != nil && (be != nil || boxes.quote.busy.Load() || boxes.offer.busy.Load() ||
			boxes.settle.busy.Load() || boxes.ack.busy.Load()):
			t.Fatalf("box decode error %v left envelope %+v or a busy box", berr, be)
		case err == nil && !bytes.Equal(encodeOne(be), encodeOne(e)):
			t.Fatalf("heap and box decodes differ:\n%x\n%x", encodeOne(e), encodeOne(be))
		}
		if err != nil {
			if e != nil || !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v with envelope %+v; want a nil envelope and ErrBadFrame", err, e)
			}
			return
		}
		first := encodeOne(e)
		again, err := decodeEnvelope(first, nil)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if second := encodeOne(again); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable:\n%x\n%x", first, second)
		}
	})
}
