package stat

import "math"

// Online accumulates mean and variance incrementally (Welford's
// algorithm) — the right shape for appliances that observe one quality
// value at a time and cannot store a growing sample. The zero value is an
// empty accumulator ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
//
//lint:ignore unused TestOnlineMatchesBatch probes the accumulator with it
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance (divide-by-n), the MLE
// the paper's analysis uses; 0 with fewer than two observations.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Gaussian returns the running MLE Gaussian with the same sigma floor as
// FitGaussianMLE, or ErrNoData when empty.
//
//lint:ignore unused TestOnlineMatchesBatch probes the accumulator with it
func (o *Online) Gaussian() (Gaussian, error) {
	if o.n == 0 {
		return Gaussian{}, ErrNoData
	}
	sigma := o.StdDev()
	const sigmaFloor = 1e-6
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	return Gaussian{Mu: o.mean, Sigma: sigma}, nil
}

// Decayed is an exponentially weighted variant of Online: old
// observations fade with factor Lambda per Add, so the statistics track a
// drifting distribution. Build with NewDecayed.
type Decayed struct {
	lambda float64
	weight float64
	mean   float64
	m2     float64
}

// NewDecayed returns an EW accumulator; lambda ∈ (0,1] is the retention
// per observation (1 = no forgetting). It panics on an out-of-range
// lambda — a programming error.
func NewDecayed(lambda float64) *Decayed {
	if lambda <= 0 || lambda > 1 {
		panic("stat: decay lambda outside (0,1]")
	}
	return &Decayed{lambda: lambda}
}

// Add folds one observation in, fading prior weight by lambda.
// The update is West's weighted incremental algorithm with the entire
// history's weight (and second moment) scaled by lambda first.
func (d *Decayed) Add(x float64) {
	prior := d.lambda * d.weight
	d.m2 *= d.lambda
	d.weight = prior + 1
	delta := x - d.mean
	r := delta / d.weight
	d.mean += r
	d.m2 += prior * delta * r
	if d.m2 < 0 {
		d.m2 = 0
	}
}

// Weight returns the effective sample weight.
func (d *Decayed) Weight() float64 { return d.weight }

// Mean returns the exponentially weighted mean.
//
//lint:ignore unused the Decayed tests probe the accumulator with it
func (d *Decayed) Mean() float64 { return d.mean }

// Variance returns the exponentially weighted population variance.
func (d *Decayed) Variance() float64 {
	if d.weight < 2 {
		return 0
	}
	return d.m2 / d.weight
}

// StdDev returns the exponentially weighted standard deviation.
func (d *Decayed) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Gaussian returns the EW Gaussian with a sigma floor, or ErrNoData when
// no observation has been added.
func (d *Decayed) Gaussian() (Gaussian, error) {
	if d.weight == 0 {
		return Gaussian{}, ErrNoData
	}
	sigma := d.StdDev()
	const sigmaFloor = 1e-6
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	return Gaussian{Mu: d.mean, Sigma: sigma}, nil
}
