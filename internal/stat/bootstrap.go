package stat

import (
	"fmt"
	"math/rand"
	"sort"
)

// Interval is a two-sided percentile confidence interval.
type Interval struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies inside the interval.
//
//lint:ignore unused eval's TestThresholdConfidence checks its intervals with it
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// BootstrapPaired resamples index-aligned pairs (xs[i], labels[i]) — the
// right shape for statistics over labelled quality scores, like the
// optimal threshold between right and wrong classifications.
func BootstrapPaired(
	xs []float64,
	labels []bool,
	statistic func(xs []float64, labels []bool) (float64, error),
	resamples int,
	level float64,
	seed int64,
) (Interval, error) {
	if len(xs) == 0 || len(xs) != len(labels) {
		return Interval{}, fmt.Errorf("%w: %d values, %d labels", ErrNoData, len(xs), len(labels))
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("stat: %d resamples, want >= 10", resamples)
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stat: confidence level %v outside (0,1)", level)
	}
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, 0, resamples)
	bufX := make([]float64, len(xs))
	bufL := make([]bool, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range bufX {
			j := rng.Intn(len(xs))
			bufX[i] = xs[j]
			bufL[i] = labels[j]
		}
		v, err := statistic(bufX, bufL)
		if err != nil {
			continue
		}
		values = append(values, v)
	}
	if len(values) < resamples/2 {
		return Interval{}, fmt.Errorf("%w: statistic defined on only %d/%d resamples",
			ErrDegenerate, len(values), resamples)
	}
	sort.Float64s(values)
	alpha := (1 - level) / 2
	return Interval{
		Lo:    Quantile(values, alpha),
		Hi:    Quantile(values, 1-alpha),
		Level: level,
	}, nil
}
