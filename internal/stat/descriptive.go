package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance, or 0 for samples
// with fewer than two points.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
//
//lint:ignore unused TestVarianceAndStdDev and TestMeanShiftInvarianceProperty check it alongside PopStdDev and Mean
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// PopStdDev returns the population (divide-by-n) standard deviation — the
// MLE estimator; this is the cue the AwarePen classifier computes from its
// accelerometer windows.
func PopStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// MinMax returns the smallest and largest values in xs. It returns
// (0, 0) for empty samples.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// ZeroCrossings counts sign changes in xs around its mean — a cheap
// frequency cue used by the feature extractors.
func ZeroCrossings(xs []float64) int {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	count := 0
	prevPos := xs[0] >= mu
	for _, x := range xs[1:] {
		pos := x >= mu
		if pos != prevPos {
			count++
			prevPos = pos
		}
	}
	return count
}

// RMS returns the root-mean-square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += x * x
	}
	return math.Sqrt(ss / float64(len(xs)))
}
