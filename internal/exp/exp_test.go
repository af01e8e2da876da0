package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vfl"
)

// fastOpts uses synthetic gains and few runs so the full experiment paths
// execute in test time.
func fastOpts() Options {
	return Options{
		Runs:       12,
		Seed:       7,
		Scale:      0.5,
		Horizon:    40,
		GainSource: GainSynthetic,
		Datasets:   []dataset.Name{dataset.Titanic, dataset.Adult},
	}
}

func TestDefaultProfiles(t *testing.T) {
	for _, name := range dataset.AllNames() {
		p := DefaultProfile(name, vfl.RandomForest)
		if p.U <= 0 || p.Budget <= 0 || p.EpsPerfect <= 0 || p.EpsImperfect <= 0 {
			t.Fatalf("%s: bad profile %+v", name, p)
		}
	}
}

func TestDefaultProfilePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultProfile(dataset.Name("nope"), vfl.RandomForest)
}

func TestProfileScaled(t *testing.T) {
	p := DefaultProfile(dataset.Credit, vfl.MLP)
	s := p.Scaled(0.2)
	if s.SampleCap >= p.SampleCap || s.CatalogSize > p.CatalogSize {
		t.Fatalf("Scaled did not shrink: %+v", s)
	}
	if s.SampleCap < 200 || s.CatalogSize < 10 {
		t.Fatalf("Scaled went below floors: %+v", s)
	}
}

func TestProfileScaledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultProfile(dataset.Titanic, vfl.MLP).Scaled(0)
}

func TestBuildEnvSynthetic(t *testing.T) {
	p := DefaultProfile(dataset.Titanic, vfl.RandomForest).Scaled(0.5)
	p.GainSource = GainSynthetic
	env, err := BuildEnv(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if env.Catalog.Len() < 5 {
		t.Fatalf("catalog size = %d", env.Catalog.Len())
	}
	if env.Session.TargetGain <= 0 {
		t.Fatalf("target gain = %v", env.Session.TargetGain)
	}
	if env.Oracle != nil {
		t.Fatal("synthetic env should not carry an oracle")
	}
	if err := env.Session.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEnvRealVFL(t *testing.T) {
	p := DefaultProfile(dataset.Titanic, vfl.RandomForest).Scaled(0.25)
	p.CatalogSize = 10
	env, err := BuildEnv(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if env.Oracle == nil {
		t.Fatal("real-VFL env should carry the oracle")
	}
	// Catalog construction must have trained each surviving bundle at most
	// once (plus the baseline and any withdrawn bundles) — never more.
	if env.Oracle.Trainings() < env.Catalog.Len()+1 {
		t.Fatalf("oracle trainings = %d, want >= %d", env.Oracle.Trainings(), env.Catalog.Len()+1)
	}
	before := env.Oracle.Trainings()
	env.Catalog.Gain(0) // cached lookups must not retrain
	if env.Oracle.Trainings() != before {
		t.Fatal("catalog gain lookup retrained")
	}
}

func TestRunFigure23Shape(t *testing.T) {
	fig, err := RunFigure23(t.Context(), vfl.RandomForest, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(fig.Datasets))
	}
	for _, df := range fig.Datasets {
		if len(df.Strategies) != 3 {
			t.Fatalf("%s: %d strategies", df.Dataset, len(df.Strategies))
		}
		if df.ReservedRate <= 0 || df.ReservedBase <= 0 {
			t.Fatalf("%s: reserved prices %v/%v", df.Dataset, df.ReservedRate, df.ReservedBase)
		}
		for _, s := range df.Strategies {
			if len(s.NetProfit) == 0 || len(s.Payment) == 0 || len(s.Gain) == 0 {
				t.Fatalf("%s/%s: empty series", df.Dataset, s.Label)
			}
			if len(s.NetProfit) > 40 {
				t.Fatalf("series exceeds horizon: %d", len(s.NetProfit))
			}
		}
	}
}

func TestFigure23StrategicWins(t *testing.T) {
	opts := fastOpts()
	opts.Runs = 25
	// Compare after both strategies have converged: strategic escalation
	// takes ~60–90 rounds at this scale.
	opts.Horizon = 200
	opts.Datasets = []dataset.Name{dataset.Titanic}
	fig, err := RunFigure23(t.Context(), vfl.RandomForest, opts)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[StrategyLabel]StrategyFigure{}
	for _, s := range fig.Datasets[0].Strategies {
		byLabel[s.Label] = s
	}
	last := func(pts []RoundAgg) float64 { return pts[len(pts)-1].Mean }
	strat, incr := byLabel[LabelStrategic], byLabel[LabelIncreasePrice]
	if last(strat.NetProfit) <= last(incr.NetProfit) {
		t.Fatalf("strategic final net profit %v not above increase-price %v",
			last(strat.NetProfit), last(incr.NetProfit))
	}
	if strat.SuccessRate < 0.9 {
		t.Fatalf("strategic success rate = %v", strat.SuccessRate)
	}
	// Strategic should settle near the reserved price of the target bundle.
	if len(strat.FinalRates) == 0 {
		t.Fatal("no final rates collected")
	}
}

func TestRunTable3Shape(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []dataset.Name{dataset.Titanic}
	t3, err := RunTable3(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 ε × 5 cost settings.
	if len(t3.Rows) != 10 {
		t.Fatalf("rows = %d", len(t3.Rows))
	}
	var noCost, heavyCost *Table3Row
	for i := range t3.Rows {
		r := &t3.Rows[i]
		if r.Epsilon != 1e-3 {
			continue
		}
		switch r.Cost.Label {
		case "No cost":
			noCost = r
		case "C(T)=aT, a=1":
			heavyCost = r
		}
	}
	if noCost == nil || heavyCost == nil {
		t.Fatal("expected rows missing")
	}
	if noCost.SuccessRate == 0 {
		t.Fatal("no-cost runs all failed")
	}
	// §4.3: cost lowers net revenue.
	if heavyCost.SuccessRate > 0 && heavyCost.NetProfit.Mean >= noCost.NetProfit.Mean {
		t.Fatalf("heavy cost did not lower net profit: %v vs %v",
			heavyCost.NetProfit.Mean, noCost.NetProfit.Mean)
	}
}

func TestRunTable4Shape(t *testing.T) {
	opts := Table4Options{
		Options:           fastOpts(),
		ExplorationRounds: 30,
		MaxRounds:         150,
		Models:            []vfl.BaseModel{vfl.RandomForest},
	}
	opts.Datasets = []dataset.Name{dataset.Titanic}
	opts.Runs = 8
	t4, err := RunTable4(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Cols) != 2 { // imperfect + perfect
		t.Fatalf("cols = %d", len(t4.Cols))
	}
	if !t4.Cols[0].Imperfect || t4.Cols[1].Imperfect {
		t.Fatal("column order should be imperfect, perfect")
	}
	perfect := t4.Cols[1]
	if perfect.SuccessRate == 0 {
		t.Fatal("perfect runs all failed")
	}
	if perfect.Gain.Mean <= 0 || perfect.NetProfit.Mean <= 0 {
		t.Fatalf("degenerate perfect column: %+v", perfect)
	}
}

func TestRunFigure4Shape(t *testing.T) {
	opts := Figure4Options{
		Options:           fastOpts(),
		Rounds:            60,
		ExplorationRounds: 60,
		Models:            []vfl.BaseModel{vfl.RandomForest},
	}
	opts.Runs = 6
	opts.Datasets = []dataset.Name{dataset.Titanic}
	f4, err := RunFigure4(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Panels) != 1 {
		t.Fatalf("panels = %d", len(f4.Panels))
	}
	p := f4.Panels[0]
	if len(p.TaskMSE) != 60 || len(p.DataMSE) != 60 {
		t.Fatalf("MSE lengths %d/%d", len(p.TaskMSE), len(p.DataMSE))
	}
	// Figure 4's qualitative claim: late MSE below early MSE.
	early := (p.DataMSE[0] + p.DataMSE[1] + p.DataMSE[2]) / 3
	late := (p.DataMSE[57] + p.DataMSE[58] + p.DataMSE[59]) / 3
	if late >= early {
		t.Fatalf("data-party estimator did not converge: %v -> %v", early, late)
	}
}

func TestRunTable2MatchesPaper(t *testing.T) {
	rows := RunTable2(1)
	want := Table2Expected()
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		w := want[i]
		if r.Stats.Name != w.Name || r.Stats.Samples != w.Samples ||
			r.Stats.OriginalFeatures != w.OriginalFeatures ||
			r.Stats.TaskPartyEncoded != w.TaskPartyEncoded ||
			r.Stats.DataPartyEncoded != w.DataPartyEncoded {
			t.Fatalf("row %d = %+v, want %+v", i, r.Stats, w)
		}
	}
}

func TestGainCacheAblation(t *testing.T) {
	ab, err := RunGainCacheAblation(dataset.Titanic, vfl.RandomForest, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ab.TrainingsWithCache >= ab.TrainingsWithout && ab.Rounds > 1 {
		t.Fatalf("cache saved nothing: %d vs %d over %d rounds",
			ab.TrainingsWithCache, ab.TrainingsWithout, ab.Rounds)
	}
}

func TestSmoothMSE(t *testing.T) {
	in := []float64{1, 2, 3, 4}
	out := SmoothMSE(in, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SmoothMSE = %v", out)
		}
	}
	same := SmoothMSE(in, 1)
	same[0] = 99
	if in[0] == 99 {
		t.Fatal("window 1 should copy")
	}
}

func TestTextTableRender(t *testing.T) {
	tab := &TextTable{Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Add("333") // short row padded
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Fatalf("render output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
}

func TestTextTableCSV(t *testing.T) {
	tab := &TextTable{Header: []string{"x", "y"}}
	tab.Add("1", "2")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestFormatters(t *testing.T) {
	opts := fastOpts()
	opts.Datasets = []dataset.Name{dataset.Titanic}
	opts.Runs = 6
	fig, err := RunFigure23(t.Context(), vfl.RandomForest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab := FormatFigureSeries(fig.Datasets[0]); len(tab.Rows) == 0 {
		t.Fatal("empty series table")
	}
	if tab := FormatFigureDensities(fig.Datasets[0]); len(tab.Rows) == 0 {
		t.Fatal("empty density table")
	}
	if tab := FormatTable2(RunTable2(1)); len(tab.Rows) != 4 {
		t.Fatal("Table 2 should have 4 metric rows")
	}
	t3, err := RunTable3(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab := FormatTable3(t3); len(tab.Rows) != len(t3.Rows) {
		t.Fatal("Table 3 row mismatch")
	}
	t4opts := Table4Options{Options: opts, ExplorationRounds: 20, MaxRounds: 100,
		Models: []vfl.BaseModel{vfl.RandomForest}}
	t4, err := RunTable4(t.Context(), t4opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab := FormatTable4(t4); len(tab.Rows) != len(t4.Cols) {
		t.Fatal("Table 4 row mismatch")
	}
	f4opts := Figure4Options{Options: opts, Rounds: 30, ExplorationRounds: 30,
		Models: []vfl.BaseModel{vfl.RandomForest}}
	f4opts.Runs = 3
	f4, err := RunFigure4(t.Context(), f4opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab := FormatFigure4(f4, 5); len(tab.Rows) == 0 {
		t.Fatal("empty Figure 4 table")
	}
}

func TestAggregateRunsCarryForward(t *testing.T) {
	mk := func(vals ...float64) []core.RoundRecord {
		recs := make([]core.RoundRecord, len(vals))
		for i, v := range vals {
			recs[i] = core.RoundRecord{Round: i + 1, NetProfit: v}
		}
		return recs
	}
	runs := [][]core.RoundRecord{
		mk(1, 2),       // terminates after 2 rounds
		mk(3, 4, 5, 6), // runs 4 rounds
		{},             // immediate failure: skipped
	}
	pts := aggregateRuns(runs, 5, func(r core.RoundRecord) float64 { return r.NetProfit })
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Round 1: mean(1,3)=2. Round 4: first run carries 2 forward → mean(2,6)=4.
	if pts[0].Mean != 2 {
		t.Fatalf("round 1 mean = %v", pts[0].Mean)
	}
	if pts[3].Mean != 4 {
		t.Fatalf("round 4 mean = %v", pts[3].Mean)
	}
	// Round 5: both carry forward → mean(2,6)=4.
	if pts[4].Mean != 4 {
		t.Fatalf("round 5 mean = %v", pts[4].Mean)
	}
}

func TestAggregateRunsAllEmpty(t *testing.T) {
	pts := aggregateRuns([][]core.RoundRecord{{}, {}}, 5,
		func(r core.RoundRecord) float64 { return r.Gain })
	if len(pts) != 0 {
		t.Fatalf("expected empty aggregation, got %d points", len(pts))
	}
}

func TestKDECurveSmallSample(t *testing.T) {
	if c := kdeCurve([]float64{1}, 10); len(c.X) != 0 {
		t.Fatal("single-sample KDE should be empty")
	}
	if c := kdeCurve([]float64{1, 2, 3}, 10); len(c.X) != 10 {
		t.Fatalf("KDE grid = %d", len(c.X))
	}
}

// Table2Expected returns the paper's Table 2 values, used by tests and
// EXPERIMENTS.md to confirm the schema match.
func Table2Expected() []dataset.Stats {
	return []dataset.Stats{
		{Name: "titanic", Samples: 891, OriginalFeatures: 11, TaskPartyEncoded: 10, DataPartyEncoded: 19},
		{Name: "credit", Samples: 30000, OriginalFeatures: 25, TaskPartyEncoded: 9, DataPartyEncoded: 21},
		{Name: "adult", Samples: 48842, OriginalFeatures: 14, TaskPartyEncoded: 52, DataPartyEncoded: 36},
	}
}

// BenchmarkAblationGainCache quantifies the gain-memoization design choice:
// it plays a real-VFL bargaining session and reports trained courses with
// and without the cache.
func BenchmarkAblationGainCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab, err := RunGainCacheAblation(dataset.Titanic, vfl.RandomForest, 0.25, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ab.TrainingsWithCache), "trainings-cached")
		b.ReportMetric(float64(ab.TrainingsWithout), "trainings-uncached")
	}
}

// GainCacheAblation measures what the gain-memoizing oracle saves: it plays
// one strategic bargaining session and reports how many VFL trainings were
// run versus how many a cache-less implementation would have run (one per
// bargaining round plus the catalog's pre-training and the baseline).
type GainCacheAblation struct {
	Rounds             int
	TrainingsWithCache int
	TrainingsWithout   int
}

// RunGainCacheAblation runs the ablation on a real-VFL environment.
func RunGainCacheAblation(name dataset.Name, model vfl.BaseModel, scale float64, seed uint64) (*GainCacheAblation, error) {
	p := DefaultProfile(name, model).Scaled(scale)
	p.GainSource = GainVFL
	env, err := BuildEnv(p, seed)
	if err != nil {
		return nil, err
	}
	cfg := env.Session
	cfg.Seed = seed
	res, err := core.NewSession(env.Catalog, cfg).RunPerfect(context.Background())
	if err != nil {
		return nil, err
	}
	return &GainCacheAblation{
		Rounds:             len(res.Rounds),
		TrainingsWithCache: env.Oracle.Trainings(),
		// Without memoization: the catalog pre-training, the baseline, and a
		// fresh VFL course every bargaining round.
		TrainingsWithout: env.Oracle.CacheSize() + 1 + len(res.Rounds),
	}, nil
}
