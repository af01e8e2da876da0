package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	a1 := New(7).Split(3)
	a2 := New(7).Split(3)
	b := New(7).Split(4)
	equalWithA := 0
	for i := 0; i < 500; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x != y {
			t.Fatalf("same-label splits diverged at step %d", i)
		}
		if x == z {
			equalWithA++
		}
	}
	if equalWithA > 2 {
		t.Fatalf("different labels produced %d/500 equal values", equalWithA)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestGaussMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Gauss(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean = %v, want ~2", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Errorf("std = %v, want ~3", std)
	}
}

func TestIntNBounds(t *testing.T) {
	s := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("IntN(7) hit %d distinct values, want 7", len(seen))
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestChoiceWeighted(t *testing.T) {
	s := New(19)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice([]float64{1, 2, 1})]++
	}
	if f := float64(counts[1]) / n; math.Abs(f-0.5) > 0.02 {
		t.Errorf("middle weight frequency = %v, want ~0.5", f)
	}
}

func TestChoiceAllZeroUniform(t *testing.T) {
	s := New(23)
	counts := [4]int{}
	for i := 0; i < 40000; i++ {
		counts[s.Choice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if f := float64(c) / 40000; math.Abs(f-0.25) > 0.03 {
			t.Errorf("index %d frequency %v, want ~0.25", i, f)
		}
	}
}

func TestChoiceNegativeTreatedAsZero(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		if got := s.Choice([]float64{-5, 1, -2}); got != 1 {
			t.Fatalf("Choice picked index %d with zero effective weight", got)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(31)
	for trial := 0; trial < 200; trial++ {
		got := s.Sample(20, 8)
		if len(got) != 8 {
			t.Fatalf("Sample returned %d items", len(got))
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= 20 {
				t.Fatalf("Sample value out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("Sample returned duplicate %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleFull(t *testing.T) {
	s := New(37)
	got := s.Sample(5, 5)
	seen := make(map[int]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Sample(5,5) not a permutation: %v", got)
	}
}

func TestSamplePanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).Sample(3, 4)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	s := New(43)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestGammaMean(t *testing.T) {
	s := New(47)
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Gamma(shape)
		}
		if mean := sum / n; math.Abs(mean-shape) > 0.06*math.Max(1, shape) {
			t.Errorf("Gamma(%v) mean = %v", shape, mean)
		}
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	s := New(53)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Beta(2, 3)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.4) > 0.01 {
		t.Errorf("Beta(2,3) mean = %v, want ~0.4", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(59)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

// Property: Sample never returns out-of-range or duplicate values for any
// (n, k) with 0 <= k <= n <= 64.
func TestSampleProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%64) + 1
		k := int(kRaw) % (n + 1)
		got := New(seed).Sample(n, k)
		if len(got) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Choice always returns a valid index with positive weight when one
// exists.
func TestChoiceProperty(t *testing.T) {
	f := func(seed uint64, ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		for i, w := range ws {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				ws[i] = 0
			}
			// Keep weights in a range whose sum cannot overflow.
			ws[i] = math.Mod(ws[i], 1e6)
		}
		idx := New(seed).Choice(ws)
		if idx < 0 || idx >= len(ws) {
			return false
		}
		anyPositive := false
		for _, w := range ws {
			if w > 0 {
				anyPositive = true
			}
		}
		if anyPositive && ws[idx] <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedDeterministicAndSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for master := uint64(0); master < 4; master++ {
		for stream := uint64(0); stream < 256; stream++ {
			a := DeriveSeed(master, stream)
			if b := DeriveSeed(master, stream); b != a {
				t.Fatalf("DeriveSeed(%d,%d) not deterministic: %x vs %x", master, stream, a, b)
			}
			if seen[a] {
				t.Fatalf("DeriveSeed collision at (%d,%d): %x", master, stream, a)
			}
			seen[a] = true
		}
	}
	// Derived seeds must actually decorrelate the streams.
	x, y := New(DeriveSeed(1, 0)), New(DeriveSeed(1, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent derived streams agree on %d/64 draws", same)
	}
}

func BenchmarkGauss(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Gauss(0, 1)
	}
}

func BenchmarkSample(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Sample(100, 10)
	}
}

// TestStateRoundTrip proves a restored Source continues the exact variate
// sequence of the original — the property estimator checkpoint/resume is
// built on. It deliberately mixes variate kinds (uniform, normal via the
// ziggurat, permutation) to pin down that rand/v2 keeps no hidden state
// outside the PCG.
func TestStateRoundTrip(t *testing.T) {
	src := New(42)
	// Burn an arbitrary prefix with mixed draws.
	for i := 0; i < 37; i++ {
		src.Float64()
		src.Norm()
		src.IntN(17)
	}
	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	clone := New(0)
	if err := clone.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a, b := src.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("Uint64 #%d: %d != %d", i, a, b)
		}
		if a, b := src.Norm(), clone.Norm(); a != b {
			t.Fatalf("Norm #%d: %v != %v", i, a, b)
		}
		pa, pb := src.Perm(9), clone.Perm(9)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("Perm #%d: %v != %v", i, pa, pb)
			}
		}
	}
	// Split consumes from the parent and derives children identically.
	ca, cb := src.Split(6), clone.Split(6)
	for i := 0; i < 100; i++ {
		if a, b := ca.Float64(), cb.Float64(); a != b {
			t.Fatalf("child draw #%d: %v != %v", i, a, b)
		}
	}
}

// Exp returns an exponential variate with the given rate. It panics if
// rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	return -math.Log(1-s.r.Float64()) / rate
}

// TestSourceOneAllocation: a stream holds its generator by value, so New
// and Split each cost one allocation (TestStateRoundTrip covers that a
// restored stream still continues the same variates).
func TestSourceOneAllocation(t *testing.T) {
	parent := New(7)
	if n := testing.AllocsPerRun(50, func() { New(3) }); n != 1 {
		t.Errorf("New allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { parent.Split(2) }); n != 1 {
		t.Errorf("Split allocates %v times, want 1", n)
	}
}
