package tensor

// Both-path tests of the AVX2 kernels: every sweep runs on the scalar Go
// loops and, where the CPU has AVX2, on the assembly, and the two must
// agree bit for bit. The operands cover every length 0–67 (so every tail
// length after the four-lane blocks), starts off a 32-byte boundary, ±0,
// subnormals, ±Inf and NaN.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// cpuHasAVX2 is what start-up detection found; the tests switch haveAVX2
// between it and false.
var cpuHasAVX2 = haveAVX2

// withAVX2 runs f with the AVX2 kernels switched on or off, then restores
// the detected setting.
func withAVX2(on bool, f func()) {
	defer func() { haveAVX2 = cpuHasAVX2 }()
	haveAVX2 = on
	f()
}

// onEachPath calls f once per kernel path this CPU can run, named
// "scalar" or "avx2", with haveAVX2 set to match: the scalar Go loops
// first, then the assembly where detected.
func onEachPath(f func(path string)) {
	withAVX2(false, func() { f("scalar") })
	if cpuHasAVX2 {
		withAVX2(true, func() { f("avx2") })
	}
}

func TestBothKernelPathsRun(t *testing.T) {
	if !cpuHasAVX2 {
		t.Skip("this CPU lacks AVX2: only the scalar kernels are tested")
	}
	var paths []string
	onEachPath(func(path string) { paths = append(paths, path) })
	if fmt.Sprint(paths) != "[scalar avx2]" || haveAVX2 != cpuHasAVX2 {
		t.Fatalf("paths %v, haveAVX2 left at %v", paths, haveAVX2)
	}
}

// sameFloats fails unless got and want agree bit for bit, except that a
// NaN matches any NaN: which of two NaN operands' payloads an add or a
// multiply returns depends on operand order, which the Go compiler picks
// freely for the scalar loops too.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: [%d] = %v (%#x), scalar %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// specialValues are the operands every kernel must carry through exactly
// as the scalar code does.
var specialValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1e-300,
}

// kernelOperand draws a length-n slice starting off elements into its
// allocation: Gaussian values with roughly one in six replaced by a
// special value when special is set.
func kernelOperand(src *rng.Source, n, off int, special bool) []float64 {
	buf := make([]float64, off+n)
	x := buf[off:]
	for i := range x {
		x[i] = src.Gauss(0, 1)
		if special && src.IntN(6) == 0 {
			x[i] = specialValues[src.IntN(len(specialValues))]
		}
	}
	return x
}

// cloneAt copies x into a fresh allocation, starting off elements in.
func cloneAt(x []float64, off int) []float64 {
	buf := make([]float64, off+len(x))
	copy(buf[off:], x)
	return buf[off:]
}

func TestAxpyKernelsSweep(t *testing.T) {
	src := rng.New(31)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				x := kernelOperand(src, n, off, special)
				y := kernelOperand(src, n, (off+1)%4, special)
				alpha := src.Gauss(0, 1)
				if special && n%5 == 0 {
					alpha = specialValues[n%len(specialValues)]
				}
				u := kernelOperand(src, 3, 0, special) // AddOuter's rows, one of them skipped
				u[1] = 0
				M := &Matrix{Rows: 3, Cols: n, Data: kernelOperand(src, 3*n, (off+2)%4, special)}
				var wantY, wantM, wantT []float64
				onEachPath(func(path string) {
					what := fmt.Sprintf("%s n=%d off=%d special=%v", path, n, off, special)
					gy := cloneAt(y, off)
					Vector(gy).AddScaled(alpha, x)
					gm := &Matrix{Rows: 3, Cols: n, Data: cloneAt(M.Data, off)}
					gm.AddOuter(alpha, u, x)
					gt := cloneAt(y, (off+3)%4) // overwritten
					M.MulVecTInto(gt, u)
					if path == "scalar" {
						wantY, wantM, wantT = gy, gm.Data, gt
						return
					}
					sameFloats(t, what+" AddScaled", gy, wantY)
					sameFloats(t, what+" AddOuter", gm.Data, wantM)
					sameFloats(t, what+" MulVecTInto", gt, wantT)
				})
				// The scalar path itself against the written-out formula.
				for j := range wantY {
					want := y[j] + float64(alpha*x[j])
					if math.Float64bits(wantY[j]) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(wantY[j])) {
						t.Fatalf("n=%d off=%d: AddScaled[%d] = %v, want %v", n, off, j, wantY[j], want)
					}
				}
			}
		}
	}
}

// adamCase is one Adam kernel step: the coefficients and whether the
// gradients carry special values.
type adamCase struct {
	name    string
	step    AdamStep
	special bool
	nanGrad bool
}

func adamCases() []adamCase {
	base := AdamStep{B1: 0.9, D1: 1 - 0.9, B2: 0.999, D2: 1 - 0.999, LR: 0.05, Eps: 1e-8}
	var cases []adamCase
	for t := 1; t <= 3; t++ {
		st := base
		st.C1 = 1 - math.Pow(st.B1, float64(t))
		st.C2 = 1 - math.Pow(st.B2, float64(t))
		clip := st
		clip.Scale, clip.Clip = 0.37, true
		// Clip set with a scale of 1 still multiplies; a kernel that
		// treats the flag as the scale must match too.
		unit := st
		unit.Scale, unit.Clip = 1, true
		// A scale that is not applied: Clip off must ignore it.
		ignored := st
		ignored.Scale = 0.37
		nanScale := st
		nanScale.Scale, nanScale.Clip = math.NaN(), true
		cases = append(cases,
			adamCase{name: fmt.Sprintf("t%d-noclip", t), step: ignored},
			adamCase{name: fmt.Sprintf("t%d-clip", t), step: clip},
			adamCase{name: fmt.Sprintf("t%d-clip1", t), step: unit},
			adamCase{name: fmt.Sprintf("t%d-nan-grad", t), step: clip, nanGrad: true},
			adamCase{name: fmt.Sprintf("t%d-nan-grad-noclip", t), step: st, nanGrad: true},
			adamCase{name: fmt.Sprintf("t%d-nan-scale", t), step: nanScale},
			adamCase{name: fmt.Sprintf("t%d-special", t), step: clip, special: true},
			adamCase{name: fmt.Sprintf("t%d-special-noclip", t), step: st, special: true},
		)
	}
	return cases
}

func TestAdamKernelSweep(t *testing.T) {
	src := rng.New(32)
	for _, c := range adamCases() {
		for n := 0; n <= 67; n++ {
			off := n % 4
			w := kernelOperand(src, n, off, c.special)
			m := kernelOperand(src, n, (off+1)%4, c.special)
			v := kernelOperand(src, n, (off+2)%4, c.special)
			for i := range v {
				v[i] = math.Abs(v[i]) // a second moment; NaN stays NaN
			}
			g := kernelOperand(src, n, (off+3)%4, c.special)
			if c.nanGrad && n > 0 {
				g[src.IntN(n)] = math.NaN()
			}
			var want [3][]float64 // w, m, v
			onEachPath(func(path string) {
				what := fmt.Sprintf("%s %s n=%d", path, c.name, n)
				gw, gg, gm, gv := cloneAt(w, off), cloneAt(g, off+1), cloneAt(m, off+2), cloneAt(v, off+3)
				step := c.step
				step.Apply(gw, gg, gm, gv)
				for i, x := range gg {
					if math.Float64bits(x) != 0 {
						t.Fatalf("%s: gradient %d left at %v", what, i, x)
					}
				}
				if path == "scalar" {
					want = [3][]float64{gw, gm, gv}
					return
				}
				sameFloats(t, what+" w", gw, want[0])
				sameFloats(t, what+" m", gm, want[1])
				sameFloats(t, what+" v", gv, want[2])
			})
			// The scalar path against the written-out update.
			for i := range w {
				gi := g[i]
				if c.step.Clip {
					gi *= c.step.Scale
				}
				s := c.step
				mi := float64(s.B1*m[i]) + float64(s.D1*gi)
				vi := float64(s.B2*v[i]) + float64(float64(s.D2*gi)*gi)
				wi := w[i] - float64(s.LR*(mi/s.C1))/(math.Sqrt(vi/s.C2)+s.Eps)
				for _, p := range [][2]float64{{want[0][i], wi}, {want[1][i], mi}, {want[2][i], vi}} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) && !(math.IsNaN(p[0]) && math.IsNaN(p[1])) {
						t.Fatalf("%s n=%d: scalar Apply weight %d gives %v, the formula %v", c.name, n, i, p[0], p[1])
					}
				}
			}
		}
	}
}

// TestAdamKernelRun: 300 steps of one estimator-sized tensor list on each
// path stay bit-identical, the moments included.
func TestAdamKernelRun(t *testing.T) {
	sizes := []int{192, 64, 2048, 32, 512, 16, 16, 1}
	var want [][]float64
	onEachPath(func(path string) {
		src := rng.New(33)
		var w, m, v [][]float64
		for _, n := range sizes {
			w = append(w, kernelOperand(src, n, 0, false))
			m = append(m, make([]float64, n))
			v = append(v, make([]float64, n))
		}
		for step := 1; step <= 300; step++ {
			st := AdamStep{B1: 0.9, D1: 0.1, B2: 0.999, D2: 1 - 0.999, LR: 1e-3, Eps: 1e-8,
				C1: 1 - math.Pow(0.9, float64(step)), C2: 1 - math.Pow(0.999, float64(step))}
			if step%3 == 0 {
				st.Scale, st.Clip = 0.5, true
			}
			for k := range sizes {
				st.Apply(w[k], kernelOperand(src, sizes[k], 0, false), m[k], v[k])
			}
		}
		got := append(append(append([][]float64{}, w...), m...), v...)
		if path == "scalar" {
			want = got
			return
		}
		for k := range want {
			sameFloats(t, fmt.Sprintf("%s tensor %d", path, k), got[k], want[k])
		}
	})
}

// BenchmarkAdamStep times one Adam step over the bundle estimator's
// tensors (3 713 weights) on each kernel path.
func BenchmarkAdamStep(b *testing.B) {
	sizes := []int{16 * 64, 64, 64 * 32, 32, 32 * 16, 16, 16, 1}
	src := rng.New(34)
	var w, g, m, v [][]float64
	for _, n := range sizes {
		w = append(w, kernelOperand(src, n, 0, false))
		g = append(g, make([]float64, n))
		m = append(m, make([]float64, n))
		v = append(v, make([]float64, n))
	}
	st := AdamStep{B1: 0.9, D1: 0.1, B2: 0.999, D2: 1 - 0.999, LR: 1e-3, Eps: 1e-8, C1: 0.1, C2: 0.001, Scale: 0.5, Clip: true}
	onEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			for b.Loop() {
				for k := range sizes {
					st.Apply(w[k], g[k], m[k], v[k])
				}
			}
		})
	})
}

// The activation passes and the narrow accumulate are swept at every
// width 1–17 and at 64, so each four-lane block and every tail length of
// the assembly meet the scalar loop.
var actWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}

// edgeValues are the operands on which a ReLU compare or a zero skip can
// go wrong: ±0, ±Inf, NaN and the smallest values either side of 0.
var edgeValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}

// edgeOperand draws a length-n slice starting off elements into its
// allocation, every element an edge value or (one in three) a Gaussian.
func edgeOperand(src *rng.Source, n, off int) []float64 {
	x := kernelOperand(src, n, off, false)
	for i := range x {
		if src.IntN(3) != 0 {
			x[i] = edgeValues[src.IntN(len(edgeValues))]
		}
	}
	return x
}

// reluRef is Go's ReLU as the forward passes define it: v < 0 is false on
// NaN and −0, which pass through.
func reluRef(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func TestActivationKernelsSweep(t *testing.T) {
	src := rng.New(35)
	for _, n := range actWidths {
		for off := 0; off < 4; off++ {
			for _, edges := range []bool{false, true} {
				operand := func(n, off int) []float64 {
					if edges {
						return edgeOperand(src, n, off)
					}
					return kernelOperand(src, n, off, true)
				}
				const rows = 3
				x, bias := operand(rows*n, off), operand(n, (off+1)%4)
				y, g := operand(rows*n, (off+2)%4), operand(rows*n, (off+3)%4)
				// The written-out scalar definitions.
				wantBias := make([]float64, len(x))
				wantBiasReLU := make([]float64, len(x))
				wantSum := make([]float64, len(x))
				wantReLU := make([]float64, len(x))
				wantMask := make([]float64, len(x))
				wantGrad := make([]float64, len(x))
				for i := range x {
					wantBias[i] = x[i] + bias[i%n]
					wantBiasReLU[i] = reluRef(x[i] + bias[i%n])
					wantSum[i] = reluRef(x[i] + y[i])
					wantReLU[i] = reluRef(x[i])
					wantMask[i] = g[i]
					if y[i] <= 0 {
						wantMask[i] = 0
					}
					d := 0.0
					if y[i] > 0 {
						d = 1
					}
					wantGrad[i] = g[i] * d
				}
				onEachPath(func(path string) {
					what := fmt.Sprintf("%s n=%d off=%d edges=%v", path, n, off, edges)
					got := cloneAt(x, off)
					AddBias(got, bias)
					sameFloats(t, what+" AddBias", got, wantBias)
					got = cloneAt(x, off)
					AddBiasReLU(got, bias)
					sameFloats(t, what+" AddBiasReLU", got, wantBiasReLU)
					got = cloneAt(g, off+1) // overwritten
					ReLUSum(got, x, y)
					sameFloats(t, what+" ReLUSum", got, wantSum)
					ReLUSum(got, x, nil)
					sameFloats(t, what+" ReLUSum(nil)", got, wantReLU)
					got = cloneAt(g, off+2)
					ReLUMask(got, y)
					sameFloats(t, what+" ReLUMask", got, wantMask)
					got = cloneAt(x, off+3) // overwritten
					ReLUGrad(got, g, y)
					sameFloats(t, what+" ReLUGrad", got, wantGrad)
				})
			}
		}
	}
}

// TestActivationKernelsEmpty: zero-length operands are no-ops, and a bias
// that does not divide the rows is refused.
func TestActivationKernelsEmpty(t *testing.T) {
	onEachPath(func(path string) {
		AddBias(nil, nil)
		AddBiasReLU(nil, []float64{1})
		ReLUSum(nil, nil, nil)
		ReLUMask(nil, nil)
		ReLUGrad(nil, nil, nil)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: AddBias accepted 5 elements for a bias of 2", path)
			}
		}()
		AddBias(make([]float64, 5), make([]float64, 2))
	})
}

// TestNarrowAccumulateSweep drives AddMulAtB's transposed pass through
// every output count 1–17 and 64 against every narrow width, with ±0 and
// NaN coefficients and ±Inf and NaN operands: a zero coefficient must be
// skipped (never its product added, which would turn a −0 start into +0
// or meet an infinite operand), and a NaN coefficient must be applied, as
// Go's c != 0 does. The reference is the per-sample AddOuter sum on the
// scalar path.
func TestNarrowAccumulateSweep(t *testing.T) {
	src := rng.New(36)
	var widths []int
	for n := 1; n < narrowCols; n++ {
		widths = append(widths, n)
	}
	for _, s := range []int{1, 2, 5, 128} {
		for _, m := range actWidths {
			for _, n := range widths {
				a := &Matrix{Rows: s, Cols: m, Data: edgeOperand(src, s*m, 0)}
				b := &Matrix{Rows: s, Cols: n, Data: kernelOperand(src, s*n, 0, true)}
				start := &Matrix{Rows: m, Cols: n, Data: edgeOperand(src, m*n, 0)}
				want := start.Clone()
				withAVX2(false, func() {
					for r := 0; r < s; r++ {
						want.AddOuter(1, a.Row(r), b.Row(r))
					}
				})
				var gt []float64
				onEachPath(func(path string) {
					got := unaligned(start, (m+n)%4)
					AddMulAtB(got, a, b, &gt)
					sameFloats(t, fmt.Sprintf("%s AddMulAtB s=%d m=%d n=%d", path, s, m, n), got.Data, want.Data)
				})
			}
		}
	}
}
