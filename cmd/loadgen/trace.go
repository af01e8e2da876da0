package main

// The traced run times each layer from outside, through the public calls the
// benchmark makes into it: the client is rebuilt from the three wire calls
// vflmarket.Client makes per session (wire.OpenMux, MuxConn.Open,
// TaskClient.Bargain*Codec) with a timed codec and counting connections, and
// the same sessions are replayed in-process through core with a timed
// seller, gain provider and settlement cipher. Spans inside the program are
// a later change.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	vflmarket "repro"
	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/wire"
)

// connStats counts and times the calls served by a set of connections.
type connStats struct {
	writes, reads, bytesOut, bytesIn atomic.Int64
	writeNS, readNS                  atomic.Int64
	// turnNS sums, over every connection, the time from a read returning
	// bytes to the next write starting: on the server side, how long the
	// server took to answer a request once it had arrived.
	turnNS atomic.Int64
}

// connSnap is a point-in-time copy of connStats.
type connSnap struct {
	writes, reads, bytesOut, bytesIn float64
	write, read, turn                time.Duration
}

func (s *connStats) snap() connSnap {
	return connSnap{
		writes: float64(s.writes.Load()), reads: float64(s.reads.Load()),
		bytesOut: float64(s.bytesOut.Load()), bytesIn: float64(s.bytesIn.Load()),
		write: time.Duration(s.writeNS.Load()), read: time.Duration(s.readNS.Load()),
		turn: time.Duration(s.turnNS.Load()),
	}
}

func (a connSnap) minus(b connSnap) connSnap {
	return connSnap{
		writes: a.writes - b.writes, reads: a.reads - b.reads,
		bytesOut: a.bytesOut - b.bytesOut, bytesIn: a.bytesIn - b.bytesIn,
		write: a.write - b.write, read: a.read - b.read, turn: a.turn - b.turn,
	}
}

type timedConn struct {
	net.Conn
	st *connStats
	// lastRead is when the latest read returned bytes, as time since
	// procStart; 0 once a write has followed it.
	lastRead *atomic.Int64
}

func newTimedConn(c net.Conn, st *connStats) timedConn {
	return timedConn{c, st, new(atomic.Int64)}
}

func (c timedConn) Write(p []byte) (int, error) {
	t := time.Now()
	if r := c.lastRead.Swap(0); r != 0 {
		c.st.turnNS.Add(int64(t.Sub(procStart)) - r)
	}
	n, err := c.Conn.Write(p)
	c.st.writeNS.Add(int64(time.Since(t)))
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	return n, err
}

func (c timedConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	if n > 0 {
		c.lastRead.Store(int64(end.Sub(procStart)))
	}
	c.st.readNS.Add(int64(end.Sub(t)))
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	return n, err
}

// timedListener hands the server timed connections.
type timedListener struct {
	net.Listener
	st *connStats
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTimedConn(c, l.st), nil
}

// serveTraced serves every server of the rig on one more loopback listener,
// which counts and times the server's side of each connection, and returns
// the traced address of each served address. The untraced sub-run never
// passes through these wrappers. The traced listeners stop with the rig.
func (r *rig) serveTraced(ctx context.Context, st *connStats) (map[string]string, error) {
	addrs := map[string]string{}
	for i, srv := range r.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[r.addrs[i]] = ln.Addr().String()
		sctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(sctx, timedListener{ln, st})
		}()
		stop := r.stop
		r.stop = func() {
			cancel()
			<-done
			stop()
		}
	}
	return addrs, nil
}

// timedCodec wraps one client session's codec, timing the calls the game
// loop makes into the wire layer: Send encodes into the frame buffer, Flush
// is the write, Recv waits for the server's answer.
type timedCodec struct {
	s                     *wire.MuxSession
	sends, flushes, recvs int
	send, flush, recv     time.Duration
}

func (c *timedCodec) Name() string { return c.s.Name() }

func (c *timedCodec) Send(e *wire.Envelope) error {
	t := time.Now()
	err := c.s.Send(e)
	c.send += time.Since(t)
	c.sends++
	return err
}

func (c *timedCodec) Flush() error {
	t := time.Now()
	err := c.s.Flush()
	c.flush += time.Since(t)
	c.flushes++
	return err
}

// Recv flushes first, so the write is timed apart from the wait; the
// session's own flush-before-read then finds nothing buffered.
func (c *timedCodec) Recv() (*wire.Envelope, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	t := time.Now()
	e, err := c.s.Recv()
	c.recv += time.Since(t)
	c.recvs++
	return e, err
}

// sessionTrace is one traced wire session's timing.
type sessionTrace struct {
	ok                                      bool
	wall, dial, open, send, flush, recv, cl time.Duration
	sends, flushes, recvs                   int
}

// tracer plays traced sessions from the wire calls vflmarket.Client makes.
type tracer struct {
	r      *rig
	mc     *wire.MuxConn // the warm connection; nil for churn, which dials per session
	net    *connStats    // client side of every connection
	srvNet *connStats    // server side of every connection
	// addrs maps each address the rig serves on, as dials and redirects name
	// it, to the traced listener of the same server.
	addrs  map[string]string
	noise  *secure.NoiseSource
	traces []sessionTrace
}

// dial opens a mux connection the way vflmarket.Dial does, following one
// shard redirect, to the traced listener of the server at addr.
func (t *tracer) dial(ctx context.Context, addr string) (*wire.MuxConn, *wire.Hello, error) {
	for hop := 0; hop < 2; hop++ {
		traced, ok := t.addrs[addr]
		if !ok {
			return nil, nil, fmt.Errorf("no traced listener for %s", addr)
		}
		raw, err := (&net.Dialer{}).DialContext(ctx, "tcp", traced)
		if err != nil {
			return nil, nil, err
		}
		conn := newTimedConn(raw, t.net)
		mc, hello, err := wire.OpenMux(conn, wire.CodecGob, wire.ClientHello{Market: marketName, ListOnly: true}, ioTimeout)
		if err == nil {
			return mc, hello, nil
		}
		conn.Close()
		var rd *wire.RedirectError
		if !errors.As(err, &rd) || rd.Addr == "" {
			return nil, nil, err
		}
		addr = rd.Addr
	}
	return nil, nil, fmt.Errorf("redirected more than once from %s", addr)
}

func (t *tracer) hello(a arrival) wire.ClientHello {
	ch := wire.ClientHello{Market: marketName}
	if t.r.w.Name == "imperfect" {
		p := t.r.params.WithDefaults()
		ch.Mode = wire.ModeImperfect
		ch.Imperfect = &wire.ImperfectHello{
			Seed: a.Seed, Target: t.r.tmpl.TargetGain,
			ExplorationRounds: p.ExplorationRounds, ReplaySteps: p.ReplaySteps,
		}
	}
	return ch
}

func (t *tracer) session(ctx context.Context, a arrival) (any, error) {
	var st sessionTrace
	start := time.Now()
	mc := t.mc
	if mc == nil {
		var err error
		if mc, _, err = t.dial(ctx, t.r.addrs[a.Shard]); err != nil {
			return nil, err
		}
		st.dial = time.Since(start)
		defer func() {
			t0 := time.Now()
			mc.Close()
			st.cl = time.Since(t0)
			st.wall = time.Since(start)
			t.traces[a.Index] = st
		}()
	} else {
		defer func() {
			st.wall = time.Since(start)
			t.traces[a.Index] = st
		}()
	}
	t0 := time.Now()
	s, hello, err := mc.Open(ctx, t.hello(a), ioTimeout)
	st.open = time.Since(t0)
	if err != nil {
		return nil, err
	}
	codec := &timedCodec{s: s}
	tc := &wire.TaskClient{Session: t.r.config(a.Seed), Gains: t.r.gains, Noise: t.noise}
	var res any
	if t.r.w.Name == "imperfect" {
		res, err = tc.BargainImperfectCodec(ctx, codec, hello, t.r.params.WithDefaults())
	} else {
		res, err = tc.BargainCodec(ctx, codec, hello)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.CloseClean()
	st.ok = true
	st.send, st.flush, st.recv = codec.send, codec.flush, codec.recv
	st.sends, st.flushes, st.recvs = codec.sends, codec.flushes, codec.recvs
	return res, nil
}

// timedSeller times the data party's side of an in-process session.
type timedSeller struct {
	inner         core.Seller
	offer, settle time.Duration
}

func (s *timedSeller) Offer(round int, q core.QuotedPrice) (core.SellerOffer, error) {
	t := time.Now()
	o, err := s.inner.Offer(round, q)
	s.offer += time.Since(t)
	return o, err
}

func (s *timedSeller) Settle(round int, rec core.RoundRecord, d core.SettleDecision) error {
	t := time.Now()
	err := s.inner.Settle(round, rec, d)
	s.settle += time.Since(t)
	return err
}

func (s *timedSeller) Abandon(round int) error { return s.inner.Abandon(round) }

// DataMSE forwards the estimator seller's learning curve.
func (s *timedSeller) DataMSE() []float64 {
	if m, ok := s.inner.(core.MSEReporter); ok {
		return m.DataMSE()
	}
	return nil
}

// quoteSeller answers quotes exactly as the wire server's perfect-regime
// data party does: core.AnswerQuote plus the target-bundle hint.
type quoteSeller struct {
	cat    *core.Catalog
	cfg    core.SessionConfig
	target int
}

func newQuoteSeller(cat *core.Catalog, cfg core.SessionConfig) quoteSeller {
	return quoteSeller{cat: cat, cfg: cfg, target: cat.TargetBundle(cfg.TargetGain)}
}

func (s quoteSeller) Offer(round int, q core.QuotedPrice) (core.SellerOffer, error) {
	o := core.AnswerQuote(s.cat, q, s.cfg.U, s.cfg.EpsData, s.cfg.DataCost, round, s.cfg.EpsDataC)
	o.TargetBundleID = s.target
	return o, nil
}

func (quoteSeller) Settle(int, core.RoundRecord, core.SettleDecision) error { return nil }

func (quoteSeller) Abandon(int) error { return nil }

type timedGains struct {
	inner core.GainProvider
	calls int
	d     time.Duration
}

func (g *timedGains) Gain(features []int) float64 {
	t := time.Now()
	v := g.inner.Gain(features)
	g.d += time.Since(t)
	g.calls++
	return v
}

type timedCipher struct {
	inner        core.SettlementCipher
	seals, opens int
	seal, open   time.Duration
}

func (c *timedCipher) Seal(p float64) ([]byte, error) {
	t := time.Now()
	ct, err := c.inner.Seal(p)
	c.seal += time.Since(t)
	c.seals++
	return ct, err
}

func (c *timedCipher) Open(ct []byte) (float64, error) {
	t := time.Now()
	p, err := c.inner.Open(ct)
	c.open += time.Since(t)
	c.opens++
	return p, err
}

// roundTrip seals a payment and opens it again.
func (c *timedCipher) roundTrip(p float64) (float64, error) {
	ct, err := c.Seal(p)
	if err != nil {
		return 0, err
	}
	return c.Open(ct)
}

// replayStats are the in-process replay's totals over a schedule.
type replayStats struct {
	rounds         int
	session, inner time.Duration // replay wall, and the timed parts inside it
	offer, settle  time.Duration
	mallocs        uint64
	gains          timedGains
	cipher         *timedCipher
	server         []time.Duration // per arrival: data-party compute on the session's path
	mismatches     []error
}

// replay plays the schedule's sessions in-process, one after another,
// through a timed seller, gain provider and settlement cipher, and checks
// each against the traced wire session's result.
func (r *rig) replay(ctx context.Context, arrivals []arrival, wireOuts []outcome) (*replayStats, error) {
	cat := r.eng.Catalog()
	st := &replayStats{server: make([]time.Duration, len(arrivals)), gains: timedGains{inner: r.gains}}
	s, err := vflmarket.NewSettlement(secureKeyBits, 0)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Prime(ctx); err != nil {
		return nil, err
	}
	st.cipher = &timedCipher{inner: s}
	results := make([]any, len(arrivals))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, a := range arrivals {
		cfg := r.config(a.Seed)
		sess := core.NewSession(cat, cfg)
		var err error
		t0 := time.Now()
		switch r.w.Name {
		case "imperfect":
			seller := &timedSeller{inner: core.NewEstimatorSeller(cat, core.EstimatorSellerConfig{
				Seed: a.Seed, Target: cfg.TargetGain, EpsData: cfg.EpsData, Params: r.params,
			})}
			build := time.Since(t0)
			g0 := st.gains.d
			results[i], err = sess.RunImperfectWith(ctx, r.params, seller, &st.gains)
			st.offer += seller.offer
			st.settle += seller.settle
			st.server[i] = build + seller.offer + seller.settle
			st.inner += st.server[i] + st.gains.d - g0
		case "secure":
			o0, s0 := st.cipher.open, st.cipher.seal
			results[i], err = sess.RunPerfectSecure(ctx, st.cipher)
			st.server[i] = st.cipher.open - o0
			st.inner += st.server[i] + st.cipher.seal - s0
		default:
			seller := &timedSeller{inner: newQuoteSeller(cat, cfg)}
			g0 := st.gains.d
			results[i], err = sess.RunPerfectWith(ctx, seller, &st.gains)
			st.offer += seller.offer
			st.settle += seller.settle
			st.server[i] = seller.offer + seller.settle
			st.inner += st.server[i] + st.gains.d - g0
		}
		st.session += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay of seed %d: %w", a.Seed, err)
		}
	}
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs

	if r.w.Name != "secure" {
		// The clear regimes settle nothing under Paillier. Sealing and opening
		// each session's final payment measures internal/secure's per-call
		// cost on every workload, where it should read flat.
		for i, res := range results {
			p := resultOf(res).Final.Payment
			got, err := st.cipher.roundTrip(p)
			if err != nil {
				return nil, fmt.Errorf("settle the payment of seed %d: %w", arrivals[i].Seed, err)
			}
			if got != quantize(p) {
				st.mismatches = append(st.mismatches, fmt.Errorf("payment %v of seed %d opened as %v", p, arrivals[i].Seed, got))
			}
		}
	}

	for i, res := range results {
		st.rounds += len(resultOf(res).Rounds)
		want := wireOuts[i].Result
		if wireOuts[i].Err != nil {
			continue
		}
		if r.w.Name == "secure" {
			if !quantizedEqual(res.(*vflmarket.Result), want.(*vflmarket.Result)) {
				st.mismatches = append(st.mismatches, fmt.Errorf("secure replay of seed %d settles other payments than the wire", arrivals[i].Seed))
			}
		} else if !reflect.DeepEqual(res, want) {
			st.mismatches = append(st.mismatches, fmt.Errorf("replay of seed %d differs from its wire session", arrivals[i].Seed))
		}
	}
	if r.w.Name == "secure" {
		// RunPerfectSecure answers quotes inside core, so the offer and gain
		// time come from a clear replay of the same sessions.
		for i, a := range arrivals {
			cfg := r.config(a.Seed)
			seller := &timedSeller{inner: newQuoteSeller(cat, cfg)}
			res, err := core.NewSession(cat, cfg).RunPerfectWith(ctx, seller, &st.gains)
			if err != nil {
				return nil, fmt.Errorf("clear replay of seed %d: %w", a.Seed, err)
			}
			st.offer += seller.offer
			st.settle += seller.settle
			st.server[i] += seller.offer + seller.settle
			if wireOuts[i].Err == nil && !reflect.DeepEqual(res, wireOuts[i].Result) {
				st.mismatches = append(st.mismatches, fmt.Errorf("clear replay of seed %d differs from its wire session", a.Seed))
			}
		}
	}
	return st, nil
}

// resultOf is the trace and outcome of a perfect or imperfect result.
func resultOf(res any) *vflmarket.Result {
	if v, ok := res.(*vflmarket.ImperfectResult); ok {
		return &v.Result
	}
	return res.(*vflmarket.Result)
}

// quantizedEqual reports whether a secure replay settled exactly the clear
// session's payments, quantized to the fixed-point grid.
func quantizedEqual(sec, clear *vflmarket.Result) bool {
	if sec.Outcome != clear.Outcome || len(sec.Rounds) != len(clear.Rounds) || sec.Final.BundleID != clear.Final.BundleID {
		return false
	}
	for i := range sec.Rounds {
		if sec.Rounds[i].BundleID != clear.Rounds[i].BundleID || sec.Rounds[i].Payment != quantize(clear.Rounds[i].Payment) {
			return false
		}
	}
	return true
}

// traceRun replays the measured schedule with tracing on, after the
// untraced sub-run, and returns the per-layer metrics. Traced results must
// equal the untraced ones session by session; every difference is a failed
// session.
func (r *rig) traceRun(ctx context.Context, arrivals []arrival, untraced phase, sub *subRun) (map[string]float64, error) {
	t := &tracer{r: r, net: &connStats{}, srvNet: &connStats{}, traces: make([]sessionTrace, len(arrivals))}
	// The untraced client is done; closed, its randomizer pool stops
	// refilling on the cores the traced run needs.
	if r.client != nil {
		r.client.Close()
	}
	var err error
	if t.addrs, err = r.serveTraced(ctx, t.srvNet); err != nil {
		return nil, err
	}
	// The warm workloads dial once, and that dial and its close are the
	// samples of vflmarket.dial_ms and close_ms; churn has one per session.
	var dials, closes []float64
	if r.w.Name != "churn" {
		t0 := time.Now()
		mc, hello, err := t.dial(ctx, r.addrs[0])
		if err != nil {
			return nil, err
		}
		dials = append(dials, ms(time.Since(t0)))
		t.mc = mc
		if hello.Secure {
			// Primed, like the untraced client's pool after set-up and warm-up.
			t.noise = secure.NewNoiseSource(secure.NewPublicKey(new(big.Int).SetBytes(hello.PubN)), 0, 0, rand.Reader)
			defer t.noise.Close()
			if err := t.noise.Prime(ctx); err != nil {
				return nil, err
			}
		}
	}
	c0, s0 := t.net.snap(), t.srvNet.snap()
	ph := r.run(ctx, arrivals, t.session)
	c1, s1 := t.net.snap(), t.srvNet.snap()
	cn, sn := c1.minus(c0), s1.minus(s0)
	if t.mc != nil {
		t0 := time.Now()
		t.mc.Close()
		closes = append(closes, ms(time.Since(t0)))
	}

	sub.Attempted += len(arrivals)
	for i, o := range ph.outs {
		switch {
		case o.Err != nil:
			sub.fail(fmt.Errorf("traced session %d: %w", i, o.Err))
		case untraced.outs[i].Err == nil && !reflect.DeepEqual(o.Result, untraced.outs[i].Result):
			sub.fail(fmt.Errorf("traced session %d differs from its untraced run", i))
		}
	}
	rp, err := r.replay(ctx, arrivals, ph.outs)
	if err != nil {
		return nil, err
	}
	for _, e := range rp.mismatches {
		sub.fail(e)
	}

	n := float64(len(arrivals))
	per := func(x float64) float64 { return ratio(x, n) }
	L := map[string]float64{}
	for k, v := range r.layers {
		L[k] = v
	}
	L["vflmarket.failed_ratio"] = per(float64(untraced.server.failed))
	L["vflmarket.busy_ratio"] = per(float64(untraced.server.busy))
	L["fabric.redirect_ratio"] = per(float64(untraced.server.redirected))
	L["runtime.gc_per_session"] = per(float64(untraced.numGC))
	L["runtime.gc_cpu_fraction"] = untraced.gcFrac
	L["gen.late_p99_ms"] = sub.LateP99Ms

	var tot sessionTrace
	var wall, clientWire, recv, server time.Duration
	included := 0
	for i, s := range t.traces {
		tot.open += s.open
		tot.send += s.send
		tot.flush += s.flush
		tot.recv += s.recv
		tot.sends += s.sends
		tot.flushes += s.flushes
		tot.recvs += s.recvs
		if t.mc == nil && s.ok {
			dials = append(dials, ms(s.dial))
			closes = append(closes, ms(s.cl))
		}
		if !s.ok || ph.outs[i].Err != nil {
			continue
		}
		included++
		wall += s.wall
		clientWire += s.dial + s.open + s.send + s.flush + s.cl
		recv += s.recv
		server += rp.server[i]
	}
	L["vflmarket.dial_ms"] = median(dials)
	L["vflmarket.close_ms"] = median(closes)
	L["wire.open_us"] = per(us(tot.open))
	L["wire.sends"] = per(float64(tot.sends))
	L["wire.send_us"] = per(us(tot.send))
	L["wire.flushes"] = per(float64(tot.flushes))
	L["wire.flush_us"] = per(us(tot.flush))
	L["wire.recvs"] = per(float64(tot.recvs))
	L["wire.recv_wait_us"] = per(us(tot.recv))
	L["wire.bytes_out"] = per(cn.bytesOut)
	L["wire.bytes_in"] = per(cn.bytesIn)
	L["wire.writes"] = per(cn.writes)
	L["wire.reads"] = per(cn.reads)
	L["wire.server_writes"] = per(sn.writes)
	L["wire.server_write_us"] = per(us(sn.write))
	L["wire.server_reads"] = per(sn.reads)
	L["wire.server_read_us"] = per(us(sn.read))
	L["wire.server_turnaround_us"] = per(us(sn.turn))

	L["core.rounds"] = per(float64(rp.rounds))
	L["core.session_us"] = per(us(rp.session))
	L["core.buyer_us"] = per(us(rp.session - rp.inner))
	L["core.offer_us"] = per(us(rp.offer))
	L["core.settle_us"] = per(us(rp.settle))
	L["core.gain_calls"] = per(float64(rp.gains.calls))
	L["core.gain_us"] = per(us(rp.gains.d))
	L["core.allocs"] = per(float64(rp.mallocs))
	L["secure.seal_us"] = ratio(us(rp.cipher.seal), float64(rp.cipher.seals))
	L["secure.open_us"] = ratio(us(rp.cipher.open), float64(rp.cipher.opens))
	if t.noise != nil {
		ns := t.noise.Stats()
		L["secure.noise_hit_ratio"] = ratio(float64(ns.Pooled), float64(ns.Pooled+ns.Inline))
		L["secure.noise_produced"] = per(float64(ns.Produced))
	}

	// The ledger: wall = client core + client wire + receive wait, and the
	// receive wait = server core (from the replay) + server network (the
	// server's write calls) + a residual of everything not timed (server
	// codec and serve loop, goroutine hand-offs, loopback scheduling).
	serverNet := time.Duration(float64(sn.write) * ratio(float64(included), n))
	W := float64(wall)
	L["ledger.wall_us"] = ratio(us(wall), float64(included))
	L["ledger.client_core"] = ratio(float64(wall-clientWire-recv), W)
	L["ledger.client_wire"] = ratio(float64(clientWire), W)
	L["ledger.server_core"] = ratio(float64(server), W)
	L["ledger.server_net"] = ratio(float64(serverNet), W)
	L["ledger.residual"] = ratio(float64(recv-server-serverNet), W)

	var tracedLat, untracedLat []float64
	for i := range arrivals {
		tracedLat = append(tracedLat, ms(ph.outs[i].Latency))
		untracedLat = append(untracedLat, ms(untraced.outs[i].Latency))
	}
	L["ledger.trace_overhead"] = ratio(median(tracedLat), median(untracedLat)) - 1
	for _, m := range perLayer {
		if _, ok := L[m.Name]; !ok {
			L[m.Name] = 0 // the layer takes no part in this workload
		}
	}
	return L, nil
}
