package stat

import (
	"fmt"
	"math"
	"sort"
)

// KDE is a Gaussian-kernel density estimate — the non-parametric
// alternative to the paper's Gaussian MLE densities, used by the density
// ablation to check how much the normality assumption matters.
type KDE struct {
	xs        []float64
	bandwidth float64
}

// NewKDE builds a KDE over the sample. A non-positive bandwidth selects
// Silverman's rule of thumb h = 1.06·σ̂·n^(−1/5) (floored for degenerate
// samples).
func NewKDE(xs []float64, bandwidth float64) (*KDE, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	owned := make([]float64, len(xs))
	copy(owned, xs)
	sort.Float64s(owned)
	if bandwidth <= 0 {
		sigma := PopStdDev(owned)
		bandwidth = 1.06 * sigma * math.Pow(float64(len(owned)), -0.2)
		const floor = 1e-3
		if bandwidth < floor {
			bandwidth = floor
		}
	}
	return &KDE{xs: owned, bandwidth: bandwidth}, nil
}

// PDF returns the estimated density at x.
func (k *KDE) PDF(x float64) float64 {
	var sum float64
	h := k.bandwidth
	norm := 1 / (h * math.Sqrt(2*math.Pi))
	for _, xi := range k.xs {
		z := (x - xi) / h
		sum += norm * math.Exp(-0.5*z*z)
	}
	return sum / float64(len(k.xs))
}

// CrossPDFs finds the point in [lo, hi] where density a falls below
// density b — the decision threshold between a "low" density a and a
// "high" density b. It scans a grid for the sign change of a−b nearest to
// where both densities carry mass, then refines by bisection. ok is false
// when the densities never cross inside the interval.
func CrossPDFs(a, b func(float64) float64, lo, hi float64) (float64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("%w: empty interval [%v,%v]", ErrNoIntersection, lo, hi)
	}
	const grid = 512
	step := (hi - lo) / grid
	type crossing struct{ x0, x1 float64 }
	var crossings []crossing
	prev := a(lo) - b(lo)
	for i := 1; i <= grid; i++ {
		x := lo + float64(i)*step
		cur := a(x) - b(x)
		if (prev > 0 && cur <= 0) || (prev < 0 && cur >= 0) {
			crossings = append(crossings, crossing{x0: x - step, x1: x})
		}
		prev = cur
	}
	if len(crossings) == 0 {
		return 0, fmt.Errorf("%w: no sign change in [%v,%v]", ErrNoIntersection, lo, hi)
	}
	// Prefer the crossing where the combined density is largest — the
	// decision boundary between the two populated modes, not a crossing
	// in the far tails.
	best := crossings[0]
	bestMass := -1.0
	for _, c := range crossings {
		mid := 0.5 * (c.x0 + c.x1)
		if m := a(mid) + b(mid); m > bestMass {
			best, bestMass = c, m
		}
	}
	x0, x1 := best.x0, best.x1
	for i := 0; i < 100; i++ {
		mid := 0.5 * (x0 + x1)
		d0 := a(x0) - b(x0)
		dm := a(mid) - b(mid)
		if (d0 > 0) == (dm > 0) {
			x0 = mid
		} else {
			x1 = mid
		}
	}
	return 0.5 * (x0 + x1), nil
}
