package wire

// Tests of v4 session durability: a connection that dies mid-imperfect-
// session resumes bit-identically from both parties' checkpoints — whether
// the crash left the two sides in lockstep or the server one settled round
// ahead — and Paillier key rotation drains sessions opened under the
// previous key while new sessions settle under the fresh one.

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/secure"
	"repro/internal/store"
)

// memCheckpoints is an in-memory SellerCheckpoints registry that counts
// its loads; onSave, when non-nil, observes every save synchronously (the
// replay-branch test uses it to cut the connection between the server's
// save and its ack).
type memCheckpoints struct {
	mu     sync.Mutex
	m      map[string]*core.SellerCheckpoint
	loads  int
	onSave func(ck *core.SellerCheckpoint)
}

func newMemCheckpoints() *memCheckpoints {
	return &memCheckpoints{m: make(map[string]*core.SellerCheckpoint)}
}

func (r *memCheckpoints) Save(id string, ck *core.SellerCheckpoint) {
	r.mu.Lock()
	r.m[id] = ck
	r.mu.Unlock()
	if r.onSave != nil {
		r.onSave(ck)
	}
}

func (r *memCheckpoints) Load(id string) (*core.SellerCheckpoint, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.loads++
	ck, ok := r.m[id]
	return ck, ok
}

// resumeHarness runs one imperfect wire session that dies mid-flight and is
// then resumed over a fresh connection against the same server state. The
// cut is installed by the caller: clientCut fires on every client
// checkpoint, serverCut on every server checkpoint save; either closes the
// live connection to simulate the crash.
// The harness first computes the uninterrupted reference and stores its
// midpoint round in *cut, which the caller's closures read to decide when
// to kill the connection.
func resumeHarness(t *testing.T, seed uint64, reg *memCheckpoints, cut *int,
	clientCut func(conn net.Conn, ck *core.ImperfectCheckpoint)) (*core.ImperfectResult, *core.ImperfectResult) {
	t.Helper()
	cat, cfg, gains, params := imperfectMarket(t, seed)
	want, err := core.NewSession(cat, cfg).RunImperfect(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rounds) < 4 {
		t.Fatalf("reference session too short to interrupt: %d rounds", len(want.Rounds))
	}
	*cut = want.Rounds[len(want.Rounds)/2].Round

	srv := NewDataServer(cat, cfg.EpsData, nil)
	srv.EpsImperfect = cfg.EpsData
	srv.Checkpoints = reg
	ih := &ImperfectHello{
		Seed: cfg.Seed, Target: cfg.TargetGain,
		ExplorationRounds: params.ExplorationRounds, ReplaySteps: params.ReplaySteps,
		ClientID: "buyer-1",
	}

	// First connection: dies at the installed cut.
	hello := mustHello(t, srv)
	c, done := servePipe(t, admitted(t, srv, hello, ih)) // dies with the cut
	var last *core.ImperfectCheckpoint
	client := &TaskClient{Session: cfg, Gains: gains, Checkpoint: func(ck *core.ImperfectCheckpoint) {
		last = ck
		if clientCut != nil {
			clientCut(c.conn, ck)
		}
	}}
	he, err := link{c}.recv(KindHello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.BargainImperfectCodec(nil, c, he.Hello, params); err == nil {
		t.Fatal("interrupted session finished cleanly; the cut never fired")
	}
	c.conn.Close()
	<-done
	if last == nil {
		t.Fatal("no client checkpoint captured before the cut")
	}

	// Second connection: resume from the last checkpoint the client holds.
	ih2 := *ih
	ih2.ResumeRound = last.Round
	loads := reg.loads
	c2, done2 := servePipe(t, admitted(t, srv, hello, &ih2))
	if n := reg.loads - loads; n != 1 {
		t.Fatalf("resume admission loaded the checkpoint %d times, want once", n)
	}
	he2, err := link{c2}.recv(KindHello)
	if err != nil {
		t.Fatal(err)
	}
	if he2.Hello.Resumed != last.Round {
		t.Fatalf("server confirmed resume through round %d, want %d", he2.Hello.Resumed, last.Round)
	}
	got, err := client.ResumeImperfectCodec(nil, c2, he2.Hello, params, last)
	_ = c2.Flush()
	c2.conn.Close()
	srvSide := <-done2
	if err != nil {
		t.Fatalf("resumed client: %v", err)
	}
	if srvSide.err != nil {
		t.Fatalf("resumed server: %v", srvSide.err)
	}
	return got, want
}

// The lockstep crash: the client dies right after a checkpoint lands, so
// both parties' durable state is settled through the same round. The
// resumed session must be bit-identical to the uninterrupted run.
func TestWireResumeBitIdentical(t *testing.T) {
	reg := newMemCheckpoints()
	var cut int
	got, want := resumeHarness(t, 83, reg, &cut, func(conn net.Conn, ck *core.ImperfectCheckpoint) {
		if ck.Round >= cut {
			conn.Close()
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed session diverged from uninterrupted run:\nresumed: %v rounds=%d final=%+v mse=%d/%d\nwant:    %v rounds=%d final=%+v mse=%d/%d",
			got.Outcome, len(got.Rounds), got.Final, len(got.TaskMSE), len(got.DataMSE),
			want.Outcome, len(want.Rounds), want.Final, len(want.TaskMSE), len(want.DataMSE))
	}
}

// The ack-in-flight crash: the server saves its checkpoint for round R+1
// and the connection dies before the ack reaches the client, leaving the
// server one settled round ahead of the client's checkpoint at R. The
// resume must replay round R+1 idempotently — stored offer, stored MSE, no
// retraining — and still end bit-identical to the uninterrupted run.
func TestWireResumeReplaysServerAheadRound(t *testing.T) {
	reg := newMemCheckpoints()
	var (
		cut  int
		mu   sync.Mutex
		conn net.Conn
	)
	reg.onSave = func(ck *core.SellerCheckpoint) {
		if cut > 0 && ck.Round >= cut {
			mu.Lock()
			if conn != nil {
				conn.Close() // the ack for this round never arrives
			}
			mu.Unlock()
		}
	}
	got, want := resumeHarness(t, 83, reg, &cut, func(c net.Conn, ck *core.ImperfectCheckpoint) {
		mu.Lock()
		conn = c
		mu.Unlock()
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed resume diverged from uninterrupted run:\nresumed: %v rounds=%d final=%+v\nwant:    %v rounds=%d final=%+v",
			got.Outcome, len(got.Rounds), got.Final, want.Outcome, len(want.Rounds), want.Final)
	}
}

func TestServeImperfectRefusesBadResume(t *testing.T) {
	cat, cfg, _, _ := imperfectMarket(t, 97)
	srv := NewDataServer(cat, cfg.EpsData, nil)
	base := ImperfectHello{Seed: 7, Target: cfg.TargetGain}

	anon := base
	anon.ResumeRound = 3
	if _, err := srv.AdmitImperfect(&anon); err == nil {
		t.Fatal("server admitted a resume without a client identity")
	}
	noStore := base
	noStore.ClientID, noStore.ResumeRound = "b", 3
	if _, err := srv.AdmitImperfect(&noStore); err == nil {
		t.Fatal("checkpoint-less server admitted a resume")
	}
	reg := newMemCheckpoints()
	srv.Checkpoints = reg
	if _, err := srv.AdmitImperfect(&noStore); err == nil {
		t.Fatal("server admitted a resume for an unknown identity")
	}
	reg.Save("b", &core.SellerCheckpoint{Round: 9, Config: core.EstimatorSellerConfig{
		Seed: 7, Target: cfg.TargetGain, EpsData: cfg.EpsData,
	}})
	if _, err := srv.AdmitImperfect(&noStore); err == nil {
		t.Fatal("server resumed from a checkpoint 6 rounds ahead")
	}
	mismatched := base
	mismatched.ClientID, mismatched.ResumeRound, mismatched.Seed = "b", 9, 8
	if _, err := srv.AdmitImperfect(&mismatched); err == nil {
		t.Fatal("server resumed a checkpoint under different session parameters")
	}
	// A checkpoint that matches the hello but holds no estimator state
	// passes every check up to the restore, which must refuse it too.
	unrestorable := base
	unrestorable.ClientID, unrestorable.ResumeRound = "b", 9
	loads := reg.loads
	if _, err := srv.AdmitImperfect(&unrestorable); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("unrestorable checkpoint: err = %v, want a restore refusal", err)
	}
	if n := reg.loads - loads; n != 1 {
		t.Fatalf("resume admission loaded the checkpoint %d times, want once", n)
	}
}

func TestValidateClientID(t *testing.T) {
	for _, ok := range []string{"", "buyer-1", "A_b-C9", strings.Repeat("x", 64)} {
		if err := ValidateClientID(ok); err != nil {
			t.Errorf("ValidateClientID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"a/b", "..", "a.b", "a b", "é", strings.Repeat("x", 65)} {
		if err := ValidateClientID(bad); err == nil {
			t.Errorf("ValidateClientID(%q) accepted", bad)
		}
	}
}

// A KindBusy envelope surfaces as ErrServerBusy (retryable), a KindError as
// ErrRejected (not), and both are distinguishable via errors.Is.
func TestBusyAndRejectedSentinels(t *testing.T) {
	l := link{loopCodec(t, CodecBinary)}
	if err := l.send(&Envelope{Kind: KindBusy, Err: &ErrorMsg{Msg: "session pool saturated"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindHello); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("busy envelope surfaced as %v, want ErrServerBusy", err)
	}
	if err := l.send(&Envelope{Kind: KindError, Err: &ErrorMsg{Msg: "unknown market"}}); err != nil {
		t.Fatal(err)
	}
	_, err := l.recv(KindHello)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("error envelope surfaced as %v, want ErrRejected", err)
	}
	if errors.Is(err, ErrServerBusy) {
		t.Fatal("rejection also matched ErrServerBusy")
	}
	// A payloadless busy envelope is still a clean ErrServerBusy, not a
	// framing error.
	if err := l.send(&Envelope{Kind: KindBusy}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.recv(KindHello); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("payloadless busy envelope surfaced as %v", err)
	}
}

// Key rotation re-announces a fresh modulus to new sessions while sessions
// opened under the previous key settle against its retained state; a key
// rotated twice away fails its settlements cleanly.
func TestWireKeyRotationDrainsOldSessions(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 51)
	srv := NewDataServer(cat, cfg.EpsData, testKeys(t))

	helloOld := mustHello(t, srv)
	newPubN, err := srv.RotateKey()
	if err != nil {
		t.Fatal(err)
	}
	helloNew := mustHello(t, srv)
	if bytes.Equal(helloOld.PubN, helloNew.PubN) {
		t.Fatal("rotation did not change the announced modulus")
	}
	if !bytes.Equal(helloNew.PubN, newPubN) {
		t.Fatal("hello does not announce the rotated modulus")
	}

	// run plays one full session whose server-side hello is h.
	run := func(h *Hello) (*core.Result, *SessionSummary, error, error) {
		res, srvSide, cliErr := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains}, h)
		return res, srvSide.sum, cliErr, srvSide.err
	}

	// A session under the drained old key still settles...
	res, sum, cliErr, srvErr := run(helloOld)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("old-key session failed: client=%v server=%v", cliErr, srvErr)
	}
	if res.Outcome != core.Success || !sum.Closed {
		t.Fatalf("old-key session did not close: %v / %+v", res.Outcome, sum)
	}
	// ...and so does one under the fresh key.
	res, sum, cliErr, srvErr = run(helloNew)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("new-key session failed: client=%v server=%v", cliErr, srvErr)
	}
	if res.Outcome != core.Success || !sum.Closed {
		t.Fatalf("new-key session did not close: %v / %+v", res.Outcome, sum)
	}

	// A second rotation strands the first key: its settlements now fail
	// cleanly instead of decrypting garbage.
	if _, err := srv.RotateKey(); err != nil {
		t.Fatal(err)
	}
	_, _, _, srvErr = run(helloOld)
	if srvErr == nil || !strings.Contains(srvErr.Error(), "rotated away") {
		t.Fatalf("twice-rotated key settled: %v", srvErr)
	}
}

// entropyGate is an entropy source that fails every read until it is
// opened.
type entropyGate struct{ open atomic.Bool }

func (g *entropyGate) Read(p []byte) (int, error) {
	if !g.open.Load() {
		return 0, errors.New("entropy down")
	}
	return rand.Read(p)
}

// TestWireKeyRotationRepairsFailedBoot: a secure server whose background
// boot key failed to generate refuses every Hello until a RotateKey
// succeeds; the rotated key is then announced and settles a session.
func TestWireKeyRotationRepairsFailedBoot(t *testing.T) {
	cat, cfg, gains := buildMarket(t, 55)
	gate := &entropyGate{}
	keys, err := secure.PersistedKey(nil, "", gate, 128, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDataServer(cat, cfg.EpsData, keys)
	if _, err := srv.Hello(); err == nil {
		t.Fatal("Hello announced a key whose generation failed")
	}

	gate.open.Store(true)
	pubN, err := srv.RotateKey()
	if err != nil {
		t.Fatalf("rotation after a failed boot: %v", err)
	}
	hello := mustHello(t, srv)
	if !bytes.Equal(hello.PubN, pubN) {
		t.Fatal("hello does not announce the rotated modulus")
	}
	res, srvSide, cliErr := bargainPipe(t, srv, &TaskClient{Session: cfg, Gains: gains}, hello)
	if cliErr != nil || srvSide.err != nil {
		t.Fatalf("session under the repaired key failed: client=%v server=%v", cliErr, srvSide.err)
	}
	if res.Outcome != core.Success || !srvSide.sum.Closed {
		t.Fatalf("session under the repaired key did not close: %v / %+v", res.Outcome, srvSide.sum)
	}
}

// TestWireConcurrentKeyRotation: concurrent RotateKey calls on a persisted
// key run one after another — k of them advance the generation by exactly
// k, the live Hello announces the modulus a restart restores from the
// store, and no generation runs a pool refill goroutine.
func TestWireConcurrentKeyRotation(t *testing.T) {
	cat, cfg, _ := buildMarket(t, 53)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Pools are told apart by the NoiseSource each refill goroutine
	// serves, so pools other tests left running never count. Several
	// snapshots make sure each of those pools is seen.
	others := map[string]bool{}
	for i := 0; i < 5; i++ {
		for _, p := range fillPools() {
			others[p] = true
		}
		time.Sleep(time.Millisecond)
	}
	fillers := func() (n int) {
		for _, p := range fillPools() {
			if !others[p] {
				n++
			}
		}
		return n
	}
	keys, err := secure.PersistedKey(st, "keys/m", rand.Reader, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDataServer(cat, cfg.EpsData, keys)

	const k = 4
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.RotateKey(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if g := keys.Generation(); g != 1+k {
		t.Fatalf("generation = %d after %d concurrent rotations, want %d", g, k, 1+k)
	}
	restarted, err := secure.PersistedKey(st, "keys/m", rand.Reader, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := restarted.Key()
	if !bytes.Equal(mustHello(t, srv).PubN, stored.N.Bytes()) {
		t.Fatal("live Hello announces a modulus the store does not hold")
	}

	// The server blinds with its own primes: no generation, current or
	// replaced, runs a randomizer pool.
	if n := fillers(); n > 0 {
		t.Fatalf("the server runs %d pool refill goroutines", n)
	}
}

// fillPools lists, per live pool refill goroutine, the NoiseSource it
// serves.
func fillPools() []string {
	buf := make([]byte, 1<<20)
	return fillFrame.FindAllString(string(buf[:runtime.Stack(buf, true)]), -1)
}

var fillFrame = regexp.MustCompile(`\(\*NoiseSource\)\.fill\(0x[0-9a-f]+\)`)
