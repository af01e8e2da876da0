package exp

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// RoundAgg is the per-round aggregate of one metric over repeated runs:
// the mean and 95% confidence band plotted in Figures 2 and 3.
type RoundAgg struct {
	Round      int
	Mean       float64
	CILo, CIHi float64
}

// metricFn extracts one scalar from a round record.
type metricFn func(core.RoundRecord) float64

// aggregateRuns turns per-run round traces into a per-round mean/CI series.
// Runs shorter than the horizon carry their final value forward, matching
// how terminated negotiations hold their last state in the paper's plots.
// Runs with no rounds at all (immediate Case 1 failures) are skipped.
func aggregateRuns(runs [][]core.RoundRecord, horizon int, f metricFn) []RoundAgg {
	points := make([]RoundAgg, 0, horizon)
	for r := 0; r < horizon; r++ {
		var vals []float64
		for _, run := range runs {
			if len(run) == 0 {
				continue
			}
			idx := r
			if idx >= len(run) {
				idx = len(run) - 1 // carry forward
			}
			vals = append(vals, f(run[idx]))
		}
		if len(vals) == 0 {
			break
		}
		s := stats.Summarize(vals)
		points = append(points, RoundAgg{Round: r + 1, Mean: s.Mean, CILo: s.CILo, CIHi: s.CIHi})
	}
	return points
}

// KDECurve is a kernel-density curve for the Figure 2/3 density panels.
type KDECurve struct {
	X, Density []float64
}

// kdeCurve fits a Gaussian KDE to the sample and evaluates it on a grid.
// It returns an empty curve for fewer than two samples.
func kdeCurve(sample []float64, points int) KDECurve {
	if len(sample) < 2 {
		return KDECurve{}
	}
	k := stats.NewKDE(sample, 0)
	xs, ys := k.Grid(points)
	return KDECurve{X: xs, Density: ys}
}
