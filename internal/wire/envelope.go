package wire

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/core"
)

// The binary envelope encoding (CodecBinary) is a hand-rolled layout for the
// closed envelope set. One frame payload holds exactly one envelope:
//
//	envelope = kind:varint  sid:uvarint  mask:uvarint  payload...
//
// Bit i of mask says payload i follows; payloads appear in bit order (see the
// bit* constants). Inside a payload the struct fields follow in declaration
// order:
//
//	int, int64     zig-zag varint
//	uint64         uvarint
//	float64        8 bytes, little-endian IEEE-754 bits (bit-exact: NaN
//	               payloads, -0 and ±Inf survive)
//	bool           one byte, 0 or 1
//	string         uvarint byte length, then the bytes
//	slice, []byte  uvarint count+1, then the elements; 0 means nil, so nil
//	               and empty stay distinct
//	map            as a slice of (key, value) pairs in ascending key order,
//	               so equal maps encode to equal bytes
//	*ImperfectHello  one presence byte (0 or 1), then the fields
//
// The decoder checks every count against the bytes left before allocating,
// rejects unknown mask bits, non-0/1 booleans, map keys out of order and
// trailing bytes, and reports every violation as an *EnvelopeError, which
// wraps ErrBadFrame.

// Payload bits of the envelope mask, in encoding order.
const (
	bitHello = 1 << iota
	bitQuote
	bitOffer
	bitSettle
	bitClient
	bitErr
	bitAck
	bitRedirect
	bitStats

	bitsAll = bitStats<<1 - 1
)

// EnvelopeError reports a binary envelope that does not decode: where it
// went wrong and why. errors.Is(err, ErrBadFrame) holds for every one.
type EnvelopeError struct {
	Off int // byte offset into the frame payload
	Msg string
}

func (e *EnvelopeError) Error() string {
	return fmt.Sprintf("wire: bad envelope at byte %d: %s", e.Off, e.Msg)
}

func (e *EnvelopeError) Unwrap() error { return ErrBadFrame }

// appendEnvelope appends e's binary encoding to b.
func appendEnvelope(b []byte, e *Envelope) []byte {
	var mask uint64
	for i, present := range [...]bool{e.Hello != nil, e.Quote != nil, e.Offer != nil, e.Settle != nil,
		e.Client != nil, e.Err != nil, e.Ack != nil, e.Redirect != nil, e.Stats != nil} {
		if present {
			mask |= 1 << i
		}
	}
	b = appendInt(b, int(e.Kind))
	b = binary.AppendUvarint(b, e.SID)
	b = binary.AppendUvarint(b, mask)
	if h := e.Hello; h != nil {
		b = appendInt(b, h.Version)
		b = appendString(b, h.Market)
		b = appendStrings(b, h.Markets)
		b = appendStrings(b, h.Modes)
		b = appendCount(b, len(h.Bundles), h.Bundles == nil)
		for _, bi := range h.Bundles {
			b = appendInt(b, bi.ID)
			b = appendInts(b, bi.Features)
		}
		b = appendBool(b, h.Secure)
		b = appendBytes(b, h.PubN)
		b = appendInt(b, h.Resumed)
	}
	if q := e.Quote; q != nil {
		b = appendInt(b, q.Round)
		b = appendFloat(b, q.Rate)
		b = appendFloat(b, q.Base)
		b = appendFloat(b, q.High)
		b = appendFloat(b, q.U)
		b = appendFloat(b, q.Target)
	}
	if o := e.Offer; o != nil {
		b = appendInt(b, o.BundleID)
		b = appendInts(b, o.Features)
		b = appendBool(b, o.Accept)
		b = appendBool(b, o.Fail)
		b = appendString(b, o.Reason)
		b = appendInt(b, o.TargetBundleID)
	}
	if s := e.Settle; s != nil {
		b = appendInt(b, s.Round)
		b = appendInt(b, int(s.Decision))
		b = appendFloat(b, s.Gain)
		b = appendBytes(b, s.EncPayment)
	}
	if c := e.Client; c != nil {
		b = appendInt(b, c.Version)
		b = appendString(b, c.Market)
		b = appendString(b, c.Mode)
		b = appendBool(b, c.Imperfect != nil)
		if ih := c.Imperfect; ih != nil {
			b = binary.AppendUvarint(b, ih.Seed)
			b = appendFloat(b, ih.Target)
			b = appendInt(b, ih.ExplorationRounds)
			b = appendInt(b, ih.ReplaySteps)
			b = appendString(b, ih.ClientID)
			b = appendInt(b, ih.ResumeRound)
		}
		b = appendBool(b, c.ListOnly)
		b = appendBool(b, c.StatsOnly)
	}
	if m := e.Err; m != nil {
		b = appendString(b, m.Msg)
	}
	if a := e.Ack; a != nil {
		b = appendInt(b, a.Round)
		b = appendFloat(b, a.DataMSE)
	}
	if r := e.Redirect; r != nil {
		b = appendString(b, r.Market)
		b = appendString(b, r.Addr)
		b = binary.AppendUvarint(b, r.Epoch)
	}
	if s := e.Stats; s != nil {
		v := &s.Server
		for _, n := range [...]uint64{v.Accepted, v.Sessions, v.Closed, v.Failed, v.Rejected, v.Busy,
			v.Redirected, v.Evicted, v.Dropped, v.Watchdog, v.Quarantined} {
			b = binary.AppendUvarint(b, n)
		}
		b = appendInt(b, int(v.Active))
		b = appendCount(b, len(s.Markets), s.Markets == nil)
		for _, name := range slices.Sorted(maps.Keys(s.Markets)) {
			m := s.Markets[name]
			b = appendString(b, name)
			b = binary.AppendUvarint(b, m.Sessions)
			b = binary.AppendUvarint(b, m.ImperfectSessions)
			b = binary.AppendUvarint(b, m.ResumedSessions)
			b = appendInt(b, int(m.ActiveSessions))
			for _, n := range [...]int{m.OracleTrainings, m.OracleCachedGains, m.OracleHits,
				m.OracleCoalesced, m.OracleRestored, m.CheckpointedClients} {
				b = appendInt(b, n)
			}
		}
		b = binary.AppendUvarint(b, s.Epoch)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendCount writes a slice or map length as count+1, reserving 0 for nil.
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendBytes(b, p []byte) []byte { return append(appendCount(b, len(p), p == nil), p...) }

func appendInts(b []byte, vs []int) []byte {
	b = appendCount(b, len(vs), vs == nil)
	for _, v := range vs {
		b = appendInt(b, v)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendCount(b, len(ss), ss == nil)
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// envelopeDecoder reads one envelope out of a frame payload. Errors are
// sticky: after the first one every read returns a zero value, and only
// the first error is reported.
type envelopeDecoder struct {
	b   []byte
	off int
	err error
}

func (d *envelopeDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &EnvelopeError{Off: d.off, Msg: fmt.Sprintf(format, args...)}
	}
}

func (d *envelopeDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *envelopeDecoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || int64(int(v)) != v {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return int(v)
}

func (d *envelopeDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *envelopeDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool")
		return false
	}
	c := d.b[d.off]
	if c > 1 {
		d.fail("bool byte %d", c)
		return false
	}
	d.off++
	return c == 1
}

// raw returns the next n bytes, still aliasing the frame.
func (d *envelopeDecoder) raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *envelopeDecoder) string() string { return string(d.raw(d.uint())) }

// count reads a count+1 slice or map length. Every element takes at least
// minSize bytes, so a count the remaining bytes cannot hold is rejected
// here, before the caller allocates for it.
func (d *envelopeDecoder) count(minSize int) (n int, isNil bool) {
	c := d.uint()
	if d.err != nil || c == 0 {
		return 0, true
	}
	c--
	if left := uint64(len(d.b) - d.off); c > left/uint64(minSize) {
		d.fail("count %d exceeds the %d bytes left", c, left)
		return 0, true
	}
	return int(c), false
}

func (d *envelopeDecoder) bytes() []byte {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	return append(make([]byte, 0, n), d.raw(uint64(n))...)
}

// intsInto decodes an int slice into dst's backing array when dst is
// non-nil and its capacity holds the count, and into a fresh array
// otherwise, so an empty slice never decodes as nil. The count is checked
// against the bytes left either way, before anything is allocated.
func (d *envelopeDecoder) intsInto(dst []int) []int {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	if dst == nil || n > cap(dst) {
		dst = make([]int, n)
	}
	vs := dst[:n]
	for i := range vs {
		vs[i] = d.int()
	}
	return vs
}

// bundles decodes n bundles whose features share one array, sized by a
// scan of a copy of d that reads every feature (so it cannot outgrow the
// frame) and fails as d would. Each bundle's features are capped at their
// length, so an append to one cannot write into the next.
func (d *envelopeDecoder) bundles(n int) []BundleInfo {
	scan, total := *d, 0
	for range n {
		scan.int()
		m, _ := scan.count(1)
		for total += m; m > 0; m-- {
			scan.int()
		}
	}
	if scan.err != nil {
		*d = scan
		return nil
	}
	bs, all := make([]BundleInfo, n), make([]int, total)
	for i := range bs {
		bs[i].ID = d.int()
		f := d.intsInto(all)
		bs[i].Features, all = f[:len(f):len(f)], all[len(f):]
	}
	return bs
}

func (d *envelopeDecoder) strings() []string {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

// decodeEnvelope decodes one frame payload. The result never aliases b, so
// the caller may recycle the frame bytes as soon as it returns. A frame
// whose mask names exactly one per-round payload decodes into a box of its
// session's (boxFor, when non-nil, returns the session's boxes by SID)
// while that box is free, and onto the heap otherwise; a frame that fails
// to decode frees the box it took.
func decodeEnvelope(b []byte, boxFor func(sid uint64) *envBoxes) (*Envelope, error) {
	d := envelopeDecoder{b: b}
	kind := d.int()
	sid := d.uint()
	mask := d.uint()
	if d.err != nil {
		return nil, d.err
	}
	if mask&^bitsAll != 0 {
		d.fail("unknown payload bits %#x", mask&^bitsAll)
		return nil, d.err
	}
	var boxes *envBoxes
	var e *Envelope
	if boxFor != nil && perRound(mask) {
		if boxes = boxFor(sid); boxes != nil {
			e = boxes.take(mask)
		}
	}
	if e == nil {
		e = newEnvelope(mask)
	}
	e.Kind, e.SID = Kind(kind), sid
	if mask&bitHello != 0 {
		h := new(Hello)
		h.Version = d.int()
		h.Market = d.string()
		h.Markets = d.strings()
		h.Modes = d.strings()
		if n, isNil := d.count(2); !isNil {
			h.Bundles = d.bundles(n)
		}
		h.Secure = d.bool()
		h.PubN = d.bytes()
		h.Resumed = d.int()
		e.Hello = h
	}
	if mask&bitQuote != 0 {
		q := e.Quote
		q.Round = d.int()
		q.Rate = d.float()
		q.Base = d.float()
		q.High = d.float()
		q.U = d.float()
		q.Target = d.float()
	}
	if mask&bitOffer != 0 {
		o := e.Offer
		o.BundleID = d.int()
		o.Features = d.intsInto(o.Features)
		o.Accept = d.bool()
		o.Fail = d.bool()
		o.Reason = d.string()
		o.TargetBundleID = d.int()
	}
	if mask&bitSettle != 0 {
		s := e.Settle
		s.Round = d.int()
		s.Decision = core.SettleDecision(d.int())
		s.Gain = d.float()
		s.EncPayment = d.bytes()
	}
	if mask&bitClient != 0 {
		c := new(ClientHello)
		c.Version = d.int()
		c.Market = d.string()
		c.Mode = d.string()
		if d.bool() {
			c.Imperfect = &ImperfectHello{
				Seed:              d.uint(),
				Target:            d.float(),
				ExplorationRounds: d.int(),
				ReplaySteps:       d.int(),
				ClientID:          d.string(),
				ResumeRound:       d.int(),
			}
		}
		c.ListOnly = d.bool()
		c.StatsOnly = d.bool()
		e.Client = c
	}
	if mask&bitErr != 0 {
		e.Err = &ErrorMsg{Msg: d.string()}
	}
	if mask&bitAck != 0 {
		a := e.Ack
		a.Round = d.int()
		a.DataMSE = d.float()
	}
	if mask&bitRedirect != 0 {
		e.Redirect = &Redirect{Market: d.string(), Addr: d.string(), Epoch: d.uint()}
	}
	if mask&bitStats != 0 {
		e.Stats = d.stats()
	}
	if d.err == nil && d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	if d.err != nil {
		if boxes != nil {
			boxes.put(e)
		}
		return nil, d.err
	}
	return e, nil
}

func (d *envelopeDecoder) stats() *StatsReport {
	s := new(StatsReport)
	v := &s.Server
	for _, p := range [...]*uint64{&v.Accepted, &v.Sessions, &v.Closed, &v.Failed, &v.Rejected, &v.Busy,
		&v.Redirected, &v.Evicted, &v.Dropped, &v.Watchdog, &v.Quarantined} {
		*p = d.uint()
	}
	v.Active = int64(d.int())
	// A market entry is at least its name length plus ten one-byte numbers.
	if n, isNil := d.count(11); !isNil {
		s.Markets = make(map[string]MarketStats, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			if i > 0 && name <= prev {
				d.fail("stats markets out of order: %q after %q", name, prev)
			}
			prev = name
			var m MarketStats
			m.Sessions = d.uint()
			m.ImperfectSessions = d.uint()
			m.ResumedSessions = d.uint()
			m.ActiveSessions = int64(d.int())
			for _, p := range [...]*int{&m.OracleTrainings, &m.OracleCachedGains, &m.OracleHits,
				&m.OracleCoalesced, &m.OracleRestored, &m.CheckpointedClients} {
				*p = d.int()
			}
			s.Markets[name] = m
		}
	}
	s.Epoch = d.uint()
	return s
}

// boxed is an envelope allocated together with its only payload. busy
// marks a session's box (envBoxes) taken; a heap one never sets it.
type boxed[T any] struct {
	e    Envelope
	p    T
	busy atomic.Bool
}

// offerBox is an Offer envelope allocated together with its payload and
// room for offerInline features, more than any titanic bundle has; a
// longer bundle decodes into an array of its own.
type offerBox struct {
	boxed[Offer]
	f [offerInline]int
}

const offerInline = 16

// newEnvelope allocates the envelope for a payload mask. The per-round
// envelopes carry exactly one of Quote, Offer, Settle or Ack; those come
// out of a single allocation holding both the envelope and its payload,
// with the payload pointer set (and, for an Offer, Features set to the
// box's empty inline array, which the decoder fills when it fits). Any
// other mask gets a bare envelope plus the fixed-size payloads it names,
// and the decoder allocates the rest.
func newEnvelope(mask uint64) *Envelope {
	switch mask {
	case bitQuote:
		b := new(boxed[Quote])
		b.e.Quote = &b.p
		return &b.e
	case bitOffer:
		b := new(offerBox)
		b.e.Offer = &b.p
		b.p.Features = b.f[:0]
		return &b.e
	case bitSettle:
		b := new(boxed[Settle])
		b.e.Settle = &b.p
		return &b.e
	case bitAck:
		b := new(boxed[Ack])
		b.e.Ack = &b.p
		return &b.e
	}
	e := new(Envelope)
	if mask&bitQuote != 0 {
		e.Quote = new(Quote)
	}
	if mask&bitOffer != 0 {
		e.Offer = new(Offer)
	}
	if mask&bitSettle != 0 {
		e.Settle = new(Settle)
	}
	if mask&bitAck != 0 {
		e.Ack = new(Ack)
	}
	return e
}

// perRound reports whether mask names exactly one per-round payload.
func perRound(mask uint64) bool {
	switch mask {
	case bitQuote, bitOffer, bitSettle, bitAck:
		return true
	}
	return false
}

// envBoxes are one session's receive envelopes for the per-round kinds,
// allocated with the session and reused every round. The decoder takes
// the box of a frame's payload kind while it is free; it then stays busy
// while it waits in the session's inbox and while the session holds it,
// until the session's next Recv puts it back. The decoder may run on any
// session's goroutine (the read baton's holder decodes its siblings'
// frames), so a box is taken and put back atomically.
type envBoxes struct {
	quote  boxed[Quote]
	offer  offerBox
	settle boxed[Settle]
	ack    boxed[Ack]
}

// take claims the box for a per-round mask and resets it to hold only its
// payload, or returns nil when the box is busy.
func (b *envBoxes) take(mask uint64) *Envelope {
	switch mask {
	case bitQuote:
		if b.quote.busy.CompareAndSwap(false, true) {
			b.quote.e = Envelope{Quote: &b.quote.p}
			return &b.quote.e
		}
	case bitOffer:
		if b.offer.busy.CompareAndSwap(false, true) {
			b.offer.e = Envelope{Offer: &b.offer.p}
			b.offer.p.Features = b.offer.f[:0]
			return &b.offer.e
		}
	case bitSettle:
		if b.settle.busy.CompareAndSwap(false, true) {
			b.settle.e = Envelope{Settle: &b.settle.p}
			return &b.settle.e
		}
	case bitAck:
		if b.ack.busy.CompareAndSwap(false, true) {
			b.ack.e = Envelope{Ack: &b.ack.p}
			return &b.ack.e
		}
	}
	return nil
}

// put frees the box e is, if e is one of b's; any other envelope is left
// to the collector.
func (b *envBoxes) put(e *Envelope) {
	switch e {
	case &b.quote.e:
		b.quote.busy.Store(false)
	case &b.offer.e:
		b.offer.busy.Store(false)
	case &b.settle.e:
		b.settle.busy.Store(false)
	case &b.ack.e:
		b.ack.busy.Store(false)
	}
}
