package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4.571428571, 1e-6) {
		t.Fatalf("Variance = %v", got)
	}
	if got := Std(xs); !almost(got, math.Sqrt(4.571428571), 1e-6) {
		t.Fatalf("Std = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single value should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestMinMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MinMax(nil)
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Median(xs); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("Q0.25 = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("Quantile mutated input")
	}
}

func TestSummarizeCIContainsMean(t *testing.T) {
	src := rng.New(3)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = src.Gauss(10, 2)
	}
	s := Summarize(xs)
	if s.N != 100 {
		t.Fatalf("N = %d", s.N)
	}
	if s.CILo >= s.Mean || s.CIHi <= s.Mean {
		t.Fatalf("CI [%v, %v] does not bracket mean %v", s.CILo, s.CIHi, s.Mean)
	}
	// For n=100 the CI half-width should be roughly 1.98*std/10.
	wantHalf := 1.98 * s.Std / 10
	if !almost(s.CIHi-s.Mean, wantHalf, 1e-9) {
		t.Fatalf("half width = %v, want %v", s.CIHi-s.Mean, wantHalf)
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	s := Summarize([]float64{5})
	if s.Mean != 5 || !math.IsNaN(s.Std) || !math.IsNaN(s.CILo) {
		t.Fatalf("single-value summary = %+v", s)
	}
	s2 := Summarize([]float64{1, 3})
	// df=1 → t=12.706
	if !almost(s2.CIHi-s2.Mean, 12.706*s2.Std/math.Sqrt(2), 1e-9) {
		t.Fatalf("df=1 CI wrong: %+v", s2)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("tCritical95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if got := tCritical95(1000000); got != 1.96 {
		t.Fatalf("limit = %v", got)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	src := rng.New(5)
	xs := make([]float64, 500)
	var acc Accumulator
	for i := range xs {
		xs[i] = src.Gauss(-3, 7)
		acc.Add(xs[i])
	}
	if acc.N() != 500 {
		t.Fatalf("N = %d", acc.N())
	}
	if !almost(acc.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("acc mean %v vs %v", acc.Mean(), Mean(xs))
	}
	if !almost(acc.Std(), Std(xs), 1e-9) {
		t.Fatalf("acc std %v vs %v", acc.Std(), Std(xs))
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Std()) {
		t.Fatal("empty accumulator should be NaN")
	}
}

func TestHistogramCountsAndClamp(t *testing.T) {
	h := NewHistogram([]float64{0.05, 0.15, 0.95, -5, 100}, 10, 0, 1)
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	if h.Counts[0] != 2 { // 0.05 and clamped -5
		t.Fatalf("Counts[0] = %d", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 0.95 and clamped 100
		t.Fatalf("Counts[9] = %d", h.Counts[9])
	}
	if h.Counts[1] != 1 { // 0.15
		t.Fatalf("Counts[1] = %d", h.Counts[1])
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	src := rng.New(8)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = src.Float64()
	}
	h := NewHistogram(xs, 20, 0, 1)
	integral := 0.0
	w := 1.0 / 20
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if !almost(integral, 1, 1e-9) {
		t.Fatalf("density integral = %v", integral)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	src := rng.New(10)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = src.Gauss(5, 1)
	}
	k := NewKDE(xs, 0)
	// Trapezoidal integration over a wide range.
	const n = 2000
	lo, hi := 0.0, 10.0
	step := (hi - lo) / n
	integral := 0.0
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*step
		w := step
		if i == 0 || i == n {
			w = step / 2
		}
		integral += k.At(x) * w
	}
	if !almost(integral, 1, 0.02) {
		t.Fatalf("KDE integral = %v", integral)
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 1.05, 0.95}
	k := NewKDE(xs, 0)
	if k.At(1.0) <= k.At(3.0) {
		t.Fatal("KDE should peak near the sample")
	}
}

func TestKDEConstantSample(t *testing.T) {
	k := NewKDE([]float64{2, 2, 2}, 0)
	if k.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", k.Bandwidth)
	}
	if k.At(2) <= 0 {
		t.Fatal("density at mode should be positive")
	}
}

func TestKDEGrid(t *testing.T) {
	xs, ys := NewKDE([]float64{0, 1}, 0.5).Grid(11)
	if len(xs) != 11 || len(ys) != 11 {
		t.Fatalf("Grid sizes %d, %d", len(xs), len(ys))
	}
	if xs[0] >= xs[10] {
		t.Fatal("grid not increasing")
	}
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{0, 4}); got != 2.5 {
		t.Fatalf("MSE = %v", got)
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Fatal("empty MSE should be NaN")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v", got)
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Fatal("constant sample should give NaN")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		src := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Gauss(0, 10)
		}
		lo, hi := MinMax(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			v := Quantile(xs, math.Min(q, 1))
			if v < lo-1e-9 || v > hi+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize CI always brackets the mean for n >= 2.
func TestSummarizeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		src := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Gauss(1, 3)
		}
		s := Summarize(xs)
		return s.CILo <= s.Mean && s.Mean <= s.CIHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKDEAt(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = src.Gauss(0, 1)
	}
	k := NewKDE(xs, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.At(0.5)
	}
}

// Statistics the experiment harness does not report, kept as references for
// the tests above.

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Accumulator collects values online with O(1) memory (Welford's algorithm).
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of values added.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or NaN before any Add.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Std returns the running unbiased standard deviation, or NaN when fewer than
// two values were added.
func (a *Accumulator) Std() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into n equal-width buckets over [lo, hi]; values
// outside the range clamp to the first/last bucket. It panics if n <= 0 or
// hi <= lo.
func NewHistogram(xs []float64, n int, lo, hi float64) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs n > 0")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// Density returns the normalized density of bucket i (integrates to 1).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / (float64(h.Total) * w)
}

// MSE returns the mean squared error between preds and targets. It panics on
// length mismatch and returns NaN for empty input.
func MSE(preds, targets []float64) float64 {
	if len(preds) != len(targets) {
		panic("stats: MSE length mismatch")
	}
	if len(preds) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i, p := range preds {
		d := p - targets[i]
		s += d * d
	}
	return s / float64(len(preds))
}

// Pearson returns the Pearson correlation coefficient of xs and ys, or NaN if
// either sample is constant. It panics on length mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
