// Package metrics implements the evaluation metrics for the VFL base models.
// The paper reports Accuracy as the performance measure M used in the
// performance gain ΔG = (M - M0)/M0.
package metrics

import "math"

// Accuracy returns the fraction of predictions matching labels. Both slices
// hold class values (0/1 for the binary tasks in the paper). It panics on
// length mismatch and returns NaN for empty input.
func Accuracy(preds, labels []int) float64 {
	if len(preds) != len(labels) {
		panic("metrics: Accuracy length mismatch")
	}
	if len(preds) == 0 {
		return math.NaN()
	}
	hits := 0
	for i, p := range preds {
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(preds))
}

// PerformanceGain returns the relative improvement ΔG = (m - m0)/m0 defined
// in Eq. 1 of the paper, for higher-is-better metrics. It panics if m0 == 0.
func PerformanceGain(m, m0 float64) float64 {
	if m0 == 0 {
		panic("metrics: PerformanceGain with zero baseline")
	}
	return (m - m0) / m0
}
