package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1}); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Fatal("empty Accuracy should be NaN")
	}
}

func TestAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Accuracy([]int{1}, []int{1, 0})
}

func TestErrorRate(t *testing.T) {
	if got := ErrorRate([]int{1, 1}, []int{1, 0}); got != 0.5 {
		t.Fatalf("ErrorRate = %v", got)
	}
}

func TestAccuracyFromScores(t *testing.T) {
	got := AccuracyFromScores([]float64{0.9, 0.2, 0.5}, []int{1, 0, 1})
	if got != 1 {
		t.Fatalf("AccuracyFromScores = %v (0.5 should threshold to 1)", got)
	}
}

func TestAUCPerfectAndReversed(t *testing.T) {
	scores := []float64{0.1, 0.4, 0.35, 0.8}
	labels := []int{0, 0, 1, 1}
	got := AUC(scores, labels)
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
	perfect := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1})
	if perfect != 1 {
		t.Fatalf("perfect AUC = %v", perfect)
	}
	reversed := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1})
	if reversed != 0 {
		t.Fatalf("reversed AUC = %v", reversed)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores equal: AUC must be 0.5 by the midrank convention.
	got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if !math.IsNaN(AUC([]float64{0.1, 0.2}, []int{1, 1})) {
		t.Fatal("single-class AUC should be NaN")
	}
}

func TestMSEAndMAE(t *testing.T) {
	if got := MSE([]float64{1, 3}, []float64{0, 0}); got != 5 {
		t.Fatalf("MSE = %v", got)
	}
	if got := MAE([]float64{1, -3}, []float64{0, 0}); got != 2 {
		t.Fatalf("MAE = %v", got)
	}
}

func TestPerformanceGain(t *testing.T) {
	if got := PerformanceGain(0.9, 0.8); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("PerformanceGain = %v", got)
	}
	if got := PerformanceGain(0.7, 0.8); got >= 0 {
		t.Fatalf("negative gain expected, got %v", got)
	}
}

func TestPerformanceGainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PerformanceGain(0.5, 0)
}

// Property: AUC is invariant to any strictly monotone transform of scores.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 4
		src := rng.New(seed)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = src.Float64()
			if src.Bool(0.5) {
				labels[i] = 1
			}
		}
		hasPos, hasNeg := false, false
		for _, l := range labels {
			if l == 1 {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		a := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 1
		}
		b := AUC(transformed, labels)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy of perfect predictions is 1 and lies in [0,1] always.
func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		src := rng.New(seed)
		preds := make([]int, n)
		labels := make([]int, n)
		for i := range preds {
			preds[i] = src.IntN(2)
			labels[i] = src.IntN(2)
		}
		a := Accuracy(preds, labels)
		if a < 0 || a > 1 {
			return false
		}
		return Accuracy(labels, labels) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAUC(b *testing.B) {
	src := rng.New(1)
	n := 1000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = src.Float64()
		labels[i] = src.IntN(2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AUC(scores, labels)
	}
}

// Metrics the market does not report (the paper's measure is Accuracy),
// kept as references for the tests above.

// ErrorRate returns 1 - Accuracy.
func ErrorRate(preds, labels []int) float64 { return 1 - Accuracy(preds, labels) }

// AccuracyFromScores thresholds probability scores at 0.5 and returns the
// accuracy against binary labels.
func AccuracyFromScores(scores []float64, labels []int) float64 {
	preds := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0.5 {
			preds[i] = 1
		}
	}
	return Accuracy(preds, labels)
}

// AUC returns the area under the ROC curve for probability scores against
// binary labels, computed via the rank statistic with midrank tie handling.
// It returns NaN if either class is absent.
func AUC(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic("metrics: AUC length mismatch")
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2 // average 1-based rank of the tie group
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	var nPos, nNeg int
	var sumPos float64
	for i, l := range labels {
		if l == 1 {
			nPos++
			sumPos += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	return (sumPos - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}

// MSE returns the mean squared error of continuous predictions.
func MSE(preds, targets []float64) float64 {
	if len(preds) != len(targets) {
		panic("metrics: MSE length mismatch")
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

// MAE returns the mean absolute error of continuous predictions.
func MAE(preds, targets []float64) float64 {
	if len(preds) != len(targets) {
		panic("metrics: MAE length mismatch")
	}
	if len(preds) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i, p := range preds {
		s += math.Abs(p - targets[i])
	}
	return s / float64(len(preds))
}
