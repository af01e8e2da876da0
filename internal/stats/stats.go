// Package stats provides the descriptive statistics the experiment harness
// reports: means, standard deviations, Student-t 95% confidence intervals
// (the error bands in Figures 2 and 3), and Gaussian kernel density
// estimation (the density columns of Figures 2 and 3).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN when
// len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extreme values of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Summary holds the aggregate the experiment tables report.
type Summary struct {
	N          int
	Mean, Std  float64
	CILo, CIHi float64 // 95% Student-t confidence interval for the mean
}

// Summarize computes a Summary of xs. For n < 2 the std and CI are NaN.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Std: Std(xs)}
	if len(xs) >= 2 {
		half := tCritical95(len(xs)-1) * s.Std / math.Sqrt(float64(len(xs)))
		s.CILo, s.CIHi = s.Mean-half, s.Mean+half
	} else {
		s.CILo, s.CIHi = math.NaN(), math.NaN()
	}
	return s
}

// tCritical95 returns the two-sided 95% critical value of the Student-t
// distribution with df degrees of freedom, using a table for small df and the
// normal limit beyond.
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
		2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df < len(table):
		return table[df]
	case df < 60:
		return 2.009 + (2.042-2.009)*float64(60-df)/30 // interpolate 30..60
	case df < 120:
		return 1.98
	default:
		return 1.96
	}
}

// KDE is a Gaussian kernel density estimate of a sample, the "Shape Density"
// curves in Figures 2 and 3.
type KDE struct {
	xs        []float64
	Bandwidth float64
}

// NewKDE builds a KDE over xs. If bandwidth <= 0, Silverman's rule of thumb
// is used. It panics on an empty sample.
func NewKDE(xs []float64, bandwidth float64) *KDE {
	if len(xs) == 0 {
		panic("stats: KDE of empty sample")
	}
	k := &KDE{xs: append([]float64(nil), xs...), Bandwidth: bandwidth}
	if bandwidth <= 0 {
		sd := Std(xs)
		if math.IsNaN(sd) || sd == 0 {
			sd = 1e-3
		}
		k.Bandwidth = 1.06 * sd * math.Pow(float64(len(xs)), -0.2)
		if k.Bandwidth <= 0 {
			k.Bandwidth = 1e-3
		}
	}
	return k
}

// At evaluates the density estimate at x.
func (k *KDE) At(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	s := 0.0
	for _, xi := range k.xs {
		u := (x - xi) / k.Bandwidth
		s += math.Exp(-0.5*u*u) * invSqrt2Pi
	}
	return s / (float64(len(k.xs)) * k.Bandwidth)
}

// Grid evaluates the density on n evenly spaced points covering the sample
// range padded by two bandwidths, returning the grid and the densities.
func (k *KDE) Grid(n int) (xs, ys []float64) {
	lo, hi := MinMax(k.xs)
	lo -= 2 * k.Bandwidth
	hi += 2 * k.Bandwidth
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		xs[i] = x
		ys[i] = k.At(x)
	}
	return xs, ys
}
