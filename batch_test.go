package vflmarket

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func fastEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine("titanic", WithSynthetic(true), WithScale(0.5), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// traceObserver records the streamed rounds and outcome of one session.
type traceObserver struct {
	rounds        []RoundRecord
	outcomes      []Result
	roundAfterEnd bool
}

func (o *traceObserver) OnRound(r RoundRecord) {
	if len(o.outcomes) > 0 {
		o.roundAfterEnd = true
	}
	o.rounds = append(o.rounds, r)
}

func (o *traceObserver) OnOutcome(res Result) { o.outcomes = append(o.outcomes, res) }

func batchResultsEqual(a, b []*Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestBargainBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	e := fastEngine(t)
	specs := make([]BatchSpec, 24)

	ref, err := e.BargainBatch(t.Context(), specs, BatchOptions{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	successes := 0
	for i, res := range ref {
		if res == nil {
			t.Fatalf("nil result at %d", i)
		}
		if res.Outcome == Success {
			successes++
		}
	}
	if successes == 0 {
		t.Fatal("no batch session succeeded; market degenerate")
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := e.BargainBatch(t.Context(), specs, BatchOptions{Workers: workers, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !batchResultsEqual(ref, got) {
			t.Fatalf("results differ between 1 worker and %d workers", workers)
		}
	}
}

func TestBargainBatchSeedDerivationIsPerSpec(t *testing.T) {
	e := fastEngine(t)
	res, err := e.BargainBatch(t.Context(), make([]BatchSpec, 8), BatchOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct derived seeds must give at least two distinct traces.
	distinct := false
	for _, r := range res[1:] {
		if !reflect.DeepEqual(r.Rounds, res[0].Rounds) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("all batch sessions played identical games; seeds not derived per spec")
	}
	// An explicit spec seed pins the session regardless of position.
	pinned := []BatchSpec{{Seed: 77}}
	a, err := e.BargainBatch(t.Context(), pinned, BatchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BargainBatch(t.Context(), append(make([]BatchSpec, 3), pinned...), BatchOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0], b[3]) {
		t.Fatal("explicit spec seed did not pin the session")
	}
}

func TestBargainBatchCancelledContext(t *testing.T) {
	e := fastEngine(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	res, err := e.BargainBatch(ctx, make([]BatchSpec, 16), BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("result %d produced after pre-cancelled context", i)
		}
	}
}

func TestBargainBatchCancelMidBatch(t *testing.T) {
	e := fastEngine(t)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	// The first session to realize a round pulls the plug on the batch.
	specs := make([]BatchSpec, 64)
	for i := range specs {
		specs[i] = BatchSpec{Observer: ObserverFuncs{Round: func(RoundRecord) { cancel() }}}
	}
	res, err := e.BargainBatch(ctx, specs, BatchOptions{Workers: 4, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finished := 0
	for _, r := range res {
		if r != nil {
			finished++
		}
	}
	if finished == len(specs) {
		t.Fatal("every session finished despite mid-batch cancellation")
	}
}

func TestBargainBatchObserverOrderingPerSession(t *testing.T) {
	e := fastEngine(t)
	specs := make([]BatchSpec, 12)
	obs := make([]*traceObserver, len(specs))
	for i := range specs {
		obs[i] = &traceObserver{}
		specs[i] = BatchSpec{Observer: obs[i]}
	}
	res, err := e.BargainBatch(t.Context(), specs, BatchOptions{Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if o.roundAfterEnd {
			t.Fatalf("session %d: OnRound fired after OnOutcome", i)
		}
		if len(o.outcomes) != 1 {
			t.Fatalf("session %d: OnOutcome fired %d times", i, len(o.outcomes))
		}
		if !reflect.DeepEqual(o.rounds, res[i].Rounds) {
			t.Fatalf("session %d: streamed rounds differ from the result trace", i)
		}
		if o.outcomes[0].Outcome != res[i].Outcome {
			t.Fatalf("session %d: streamed outcome %v, result %v", i, o.outcomes[0].Outcome, res[i].Outcome)
		}
		for j, r := range o.rounds {
			if r.Round != j+1 {
				t.Fatalf("session %d: round %d streamed at position %d", i, r.Round, j)
			}
		}
	}
}

func TestBargainBatchSessionOverride(t *testing.T) {
	e := fastEngine(t)
	custom := e.Session()
	custom.MaxRounds = 3
	res, err := e.BargainBatch(t.Context(), []BatchSpec{{Session: &custom}, {}}, BatchOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rounds) > 3 {
		t.Fatalf("session override ignored: %d rounds with cap 3", len(res[0].Rounds))
	}
}

func TestBargainBatchInvalidSpecFailsBatch(t *testing.T) {
	e := fastEngine(t)
	bad := e.Session()
	bad.U = bad.InitRate // violates u > p0
	if _, err := e.BargainBatch(t.Context(), []BatchSpec{{}, {Session: &bad}}, BatchOptions{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestBargainHonorsContext(t *testing.T) {
	e := fastEngine(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := e.Bargain(ctx, BargainOptions{Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Bargain err = %v, want context.Canceled", err)
	}
	if _, err := e.BargainImperfect(ctx, 3, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("BargainImperfect err = %v, want context.Canceled", err)
	}
}

func TestBargainStreamsToObservers(t *testing.T) {
	e := fastEngine(t)
	o := &traceObserver{}
	res, err := e.Bargain(t.Context(), BargainOptions{Seed: 3, Observers: []RoundObserver{o}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.rounds, res.Rounds) || len(o.outcomes) != 1 {
		t.Fatal("observer stream does not match the returned trace")
	}
	// The imperfect game streams its (exploration-inclusive) rounds too.
	o2 := &traceObserver{}
	ires, err := e.BargainImperfect(t.Context(), 7, 20, o2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o2.rounds, ires.Rounds) || len(o2.outcomes) != 1 {
		t.Fatal("imperfect observer stream does not match the returned trace")
	}
}

func TestMergeBargainOptionsPreservesTemplate(t *testing.T) {
	tmpl := SessionConfig{
		Seed:         99,
		TaskStrategy: TaskBisection,
		DataStrategy: DataRandomBundle,
		TaskCost:     CostModel{Kind: LinearCost, Factor: 2},
	}
	got := mergeBargainOptions(tmpl, BargainOptions{})
	if got != tmpl {
		t.Fatalf("unset options clobbered the template: %+v", got)
	}
	got = mergeBargainOptions(tmpl, BargainOptions{
		Seed:      7,
		TaskGreed: TaskIncreasePrice,
		DataCost:  CostModel{Kind: ExpCost, Factor: 1.1},
	})
	if got.Seed != 7 || got.TaskStrategy != TaskIncreasePrice {
		t.Fatalf("set options not applied: %+v", got)
	}
	if got.DataStrategy != DataRandomBundle || got.TaskCost != tmpl.TaskCost {
		t.Fatalf("unrelated template fields changed: %+v", got)
	}
	if got.DataCost != (CostModel{Kind: ExpCost, Factor: 1.1}) {
		t.Fatalf("DataCost not applied: %+v", got)
	}
}

func TestNewEngineOptionsMatchConfig(t *testing.T) {
	byOpts, err := NewEngine("titanic", WithModel("forest"), WithSynthetic(true), WithScale(0.5), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	byCfg, err := NewEngineFromConfig(Config{Dataset: "titanic", Model: "forest", Synthetic: true, Scale: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if byOpts.Session() != byCfg.Session() || byOpts.Catalog().Len() != byCfg.Catalog().Len() {
		t.Fatal("functional options and Config build different engines")
	}
	if _, err := NewEngine("mnist"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
