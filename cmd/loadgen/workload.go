package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	vflmarket "repro"
	"repro/internal/rng"
	"repro/internal/secure"
)

const (
	// marketName is the one market every workload trades in.
	marketName = "titanic"
	// secureKeyBits sizes the Paillier primes of the secure workload.
	secureKeyBits = 256
	ioTimeout     = 30 * time.Second
	// shards is the size of the churn workload's cluster.
	shards = 2
	// warmStream derives a sub-run's warm-up schedule seed from its own.
	warmStream = 1 << 32
)

// workload is one traffic mix. Rates offer between a tenth and a third of
// two cores' CPU, so queueing stays small and a per-session saving shows up
// in latency; at higher load the shared host's noise swamped the medians.
type workload struct {
	Name string
	Why  string
	// Rate is the Poisson arrival rate, sessions per second.
	Rate float64
	// Limit is the latency a session must meet to count in ok_ratio.
	Limit time.Duration
	// Capped bounds the sessions in flight to GOMAXPROCS; later arrivals
	// wait in the generator.
	Capped bool
}

var workloads = []workload{
	{Name: "perfect", Rate: 100, Limit: 25 * time.Millisecond,
		Why: "Eq. 5 pool walk (~75 rounds) on one warm mux conn: the game is a catalog lookup, so codec, framing and mux costs dominate"},
	{Name: "imperfect", Rate: 30, Limit: 75 * time.Millisecond,
		Why: "estimation game (~12 rounds, capped at 30): both parties' estimator scans and online training take ~3/4 of a session; wire changes show diluted"},
	{Name: "secure", Rate: 25, Limit: 100 * time.Millisecond,
		Why: "short perfect sessions settled under Paillier: each round pays a pooled encryption and a blinded CRT decryption"},
	{Name: "churn", Rate: 400, Limit: 25 * time.Millisecond, Capped: true,
		Why: "a fresh client per session against a 2-shard cluster, half redirected: handshake, listing, redirect and teardown"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// imperfectParams are the §3.5 knobs of the imperfect workload.
var imperfectParams = vflmarket.ImperfectParams{ExplorationRounds: 10, PricePool: 100}

// imperfectMaxRounds caps an imperfect session, ending about one in a
// hundred with FailMaxRounds. Uncapped, about one seed in 750 never
// converges and runs to the default 500 rounds, and whether a run drew one
// moved its mean allocations and CPU per session by ~5%.
const imperfectMaxRounds = 30

// marketFunc builds the engine behind the market.
type marketFunc func() (*vflmarket.Engine, error)

// paperMarket is the benchmark's market: Titanic, MLP base model, paper
// scale, real VFL gains, engine seed 1.
func paperMarket() (*vflmarket.Engine, error) {
	return vflmarket.NewEngine(marketName, vflmarket.WithModel("mlp"), vflmarket.WithSeed(1))
}

// rig is one child's live system: the engine, the server or cluster serving
// it, and the warm client.
type rig struct {
	w      workload
	eng    *vflmarket.Engine
	tmpl   vflmarket.SessionConfig
	gains  vflmarket.GainProvider
	params vflmarket.ImperfectParams

	// servers holds the one server, or every shard of the churn cluster, and
	// addrs the address each serves on.
	servers []*vflmarket.Server
	addrs   []string
	client  *vflmarket.Client // nil for churn, which dials per session
	// paid collects the payments a secure server decrypted.
	paid   *summaries
	layers map[string]float64
	stop   func()
}

func newRig(ctx context.Context, w workload, mk marketFunc) (*rig, error) {
	r := &rig{w: w, layers: map[string]float64{}, stop: func() {}}
	t0 := time.Now()
	eng, err := mk()
	if err != nil {
		return nil, fmt.Errorf("build market: %w", err)
	}
	r.layers["vfl.build_s"] = time.Since(t0).Seconds()
	trainings, _ := eng.OracleStats()
	r.layers["vfl.trainings"] = float64(trainings)
	r.eng, r.gains = eng, eng.CatalogGains()
	r.tmpl = eng.Session()
	switch w.Name {
	case "imperfect":
		r.tmpl = eng.SessionImperfect()
		r.tmpl.MaxRounds = imperfectMaxRounds
		r.params = imperfectParams
	case "secure", "churn":
		r.tmpl.PriceSamples = 30
	}

	if w.Name == "churn" {
		c, err := vflmarket.NewCluster(shards, "", func(string, *vflmarket.MarketState) (*vflmarket.Engine, error) {
			return eng, nil
		})
		if err != nil {
			return nil, err
		}
		r.stop = func() { _ = c.Close() }
		t0 = time.Now()
		if err := c.Register(marketName); err != nil {
			r.stop()
			return nil, err
		}
		r.layers["secure.keygen_s"] = time.Since(t0).Seconds()
		for id := range shards {
			srv, err := c.Shard(id)
			if err != nil {
				r.stop()
				return nil, err
			}
			r.servers = append(r.servers, srv)
		}
		r.addrs = c.Addrs()
		return r, nil
	}

	var opts []vflmarket.ServerOption
	if w.Name == "secure" {
		r.paid = &summaries{}
		opts = append(opts, vflmarket.WithSecureSettlement(secureKeyBits), vflmarket.WithEagerSecureKeys(),
			vflmarket.WithSessionHook(r.paid.add))
	}
	srv := vflmarket.NewServer(opts...)
	t0 = time.Now()
	if err := srv.Register(marketName, eng); err != nil {
		return nil, err
	}
	r.layers["secure.keygen_s"] = time.Since(t0).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addrs = []string{ln.Addr().String()}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(sctx, ln)
	}()
	r.servers = []*vflmarket.Server{srv}
	r.stop = func() {
		if r.client != nil {
			r.client.Close()
		}
		cancel()
		<-done
	}
	r.client, err = r.dial(ctx, r.addrs[0])
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *rig) dial(ctx context.Context, addr string) (*vflmarket.Client, error) {
	opts := []vflmarket.DialOption{
		vflmarket.WithMarket(marketName),
		vflmarket.WithSession(r.tmpl),
		vflmarket.WithGains(r.gains),
	}
	if r.w.Name == "imperfect" {
		opts = append(opts, vflmarket.WithImperfect(r.params))
	}
	return vflmarket.Dial(ctx, addr, opts...)
}

// config is the session an arrival plays.
func (r *rig) config(seed uint64) vflmarket.SessionConfig {
	cfg := r.tmpl
	cfg.Seed = seed
	return cfg
}

// session plays one arrival through the public client.
func (r *rig) session(ctx context.Context, a arrival) (any, error) {
	opts := vflmarket.BargainOptions{Seed: a.Seed}
	switch r.w.Name {
	case "imperfect":
		return r.client.BargainImperfect(ctx, opts)
	case "churn":
		c, err := r.dial(ctx, r.addrs[a.Shard])
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Bargain(ctx, opts)
	default:
		return r.client.Bargain(ctx, opts)
	}
}

// serverCounters sums the server metrics a run is judged by over every
// server of the rig.
type serverCounters struct{ failed, busy, redirected uint64 }

func (r *rig) counters() serverCounters {
	var c serverCounters
	for _, s := range r.servers {
		m := s.Metrics()
		c.failed += m.Failed + m.Dropped + m.Watchdog
		c.busy += m.Busy
		c.redirected += m.Redirected
	}
	return c
}

// phase is one open-loop pass over a schedule with the process-level
// counters around it.
type phase struct {
	outs    []outcome
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	gcFrac  float64 // share of the process's CPU spent in GC since it started
	server  serverCounters
}

func (r *rig) run(ctx context.Context, arrivals []arrival, fn sessionFunc) phase {
	workers := 0
	if r.w.Capped {
		workers = runtime.GOMAXPROCS(0)
	}
	c0 := r.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	outs := runOpenLoop(ctx, arrivals, workers, fn)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	c1 := r.counters()
	return phase{
		outs:    outs,
		cpu:     cpu1 - cpu0,
		mallocs: m1.Mallocs - m0.Mallocs,
		numGC:   m1.NumGC - m0.NumGC,
		gcFrac:  m1.GCCPUFraction,
		server: serverCounters{
			failed:     c1.failed - c0.failed,
			busy:       c1.busy - c0.busy,
			redirected: c1.redirected - c0.redirected,
		},
	}
}

// verify checks every session of a phase outside the timed window: perfect,
// secure and churn results must equal Engine.BargainWith for the same
// session, every fourth imperfect one Engine.BargainImperfectWith, and every
// payment a secure server decrypted must be the client's payment quantized
// to the fixed-point grid. It returns one verdict per arrival, nil when the
// session passed.
func (r *rig) verify(ctx context.Context, arrivals []arrival, outs []outcome) []error {
	errs := make([]error, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			errs[i] = o.Err
			continue
		}
		errs[i] = r.check(ctx, i, arrivals[i], o.Result)
	}
	if r.paid != nil {
		r.checkPayments(outs, errs)
	}
	return errs
}

func (r *rig) check(ctx context.Context, i int, a arrival, got any) error {
	cfg := r.config(a.Seed)
	var want any
	var err error
	if r.w.Name == "imperfect" {
		if i%4 != 0 {
			return nil
		}
		want, err = r.eng.BargainImperfectWith(ctx, cfg, r.params)
	} else {
		want, err = r.eng.BargainWith(ctx, cfg)
	}
	if err != nil {
		return fmt.Errorf("in-process run of seed %d: %w", a.Seed, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("session with seed %d differs from its in-process run", a.Seed)
	}
	return nil
}

// checkPayments matches the server's decrypted settlements against the
// clients' closed sessions, by bundle, quantized payment and round count.
func (r *rig) checkPayments(outs []outcome, errs []error) {
	type key struct {
		bundle, rounds int
		payment        float64
	}
	sums := r.paid.take(len(outs))
	have := map[key]int{}
	for _, s := range sums {
		if s.Closed {
			have[key{s.BundleID, s.Rounds, s.Payment}]++
		}
	}
	for i, o := range outs {
		res, ok := o.Result.(*vflmarket.Result)
		if errs[i] != nil || !ok || res.Outcome != vflmarket.Success {
			continue
		}
		k := key{res.Final.BundleID, len(res.Rounds), quantize(res.Final.Payment)}
		if have[k] == 0 {
			errs[i] = fmt.Errorf("server decrypted no payment of %v for bundle %d", k.payment, k.bundle)
			continue
		}
		have[k]--
	}
}

// quantize is the payment a secure server decrypts for a clear payment p.
func quantize(p float64) float64 { return math.Round(p*secure.GainScale) / secure.GainScale }

// summaries collects the session summaries a server reports to its hook.
type summaries struct {
	mu   sync.Mutex
	list []vflmarket.SessionSummary
}

func (s *summaries) add(ev vflmarket.SessionEvent) {
	if ev.Summary == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, *ev.Summary)
	s.mu.Unlock()
}

// take returns and clears the summaries collected so far, first waiting a
// bounded time for n of them: the hook fires just after the client has its
// result.
func (s *summaries) take(n int) []vflmarket.SessionSummary {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		if len(s.list) >= n || time.Now().After(deadline) {
			out := s.list
			s.list = nil
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// job is one child's assignment.
type job struct {
	Workload string
	Seed     uint64
	Seconds  time.Duration // the measured sub-run
	Warmup   time.Duration
	Trace    bool
}

// runJob sets up a fresh system, warms it on its own schedule, runs the
// measured sub-run and verifies it outside the timed window. A traced job
// then replays the same schedule with timing wrappers. start is when the
// process began, so set-up time includes process start.
func runJob(ctx context.Context, j job, mk marketFunc, start time.Time) (subRun, error) {
	w, err := workloadByName(j.Workload)
	if err != nil {
		return subRun{}, err
	}
	r, err := newRig(ctx, w, mk)
	if err != nil {
		return subRun{}, fmt.Errorf("%s: set up: %w", w.Name, err)
	}
	defer r.stop()
	sub := subRun{Workload: w.Name, Seed: j.Seed, SetupS: time.Since(start).Seconds()}

	warm := schedule(rng.DeriveSeed(j.Seed, warmStream), w.Rate, j.Warmup, shards)
	r.run(ctx, warm, r.session)
	if r.paid != nil {
		r.paid.take(len(warm))
	}

	arrivals := schedule(j.Seed, w.Rate, j.Seconds, shards)
	ph := r.run(ctx, arrivals, r.session)
	errs := r.verify(ctx, arrivals, ph.outs)
	sub.Attempted = len(arrivals)
	late := make([]float64, len(arrivals))
	for i, o := range ph.outs {
		late[i] = ms(o.Late)
		sub.LatMs = append(sub.LatMs, ms(o.Latency))
		if o.Err == nil {
			sub.Completed++
		}
		switch {
		case errs[i] != nil:
			sub.fail(errs[i])
		case o.Latency <= w.Limit:
			sub.OK++
		}
	}
	sub.LateP99Ms = quantile(sortedCopy(late), 0.99)
	sub.CPUMs = ms(ph.cpu)
	sub.Mallocs = ph.mallocs
	sub.Busy = ph.server.busy

	if j.Trace {
		layers, err := r.traceRun(ctx, arrivals, ph, &sub)
		if err != nil {
			return subRun{}, fmt.Errorf("%s: trace: %w", w.Name, err)
		}
		sub.Layers = layers
	}
	if sub.RSSMB, err = rssPeakMB(); err != nil {
		return subRun{}, err
	}
	return sub, nil
}

// fail records one failed session, keeping the first few reasons.
func (s *subRun) fail(err error) {
	s.Failed++
	if len(s.Errors) < 5 {
		s.Errors = append(s.Errors, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}
