package stat

import (
	"errors"
	"fmt"
	"math"
)

// Gaussian is a univariate normal distribution N(Mu, Sigma²).
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// Statistical estimation errors.
var (
	// ErrNoData reports an estimation attempt over an empty sample.
	ErrNoData = errors.New("stat: no data")
	// ErrDegenerate reports a distribution with non-positive variance where
	// positive variance is required.
	ErrDegenerate = errors.New("stat: degenerate distribution")
	// ErrNoIntersection reports that two densities do not intersect inside
	// the requested interval.
	ErrNoIntersection = errors.New("stat: densities do not intersect in interval")
)

// PDF returns the probability density φ_{µ,σ}(x) (paper §2.3.1).
func (g Gaussian) PDF(x float64) float64 {
	z := (x - g.Mu) / g.Sigma
	return math.Exp(-0.5*z*z) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns Φ_{µ,σ}(x) = ∫_{−∞}^{x} φ(t) dt, the paper's lower median cut.
func (g Gaussian) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-g.Mu)/(g.Sigma*math.Sqrt2))
}

// UpperTail returns Φ̄_{µ,σ}(x) = ∫_{x}^{∞} φ(t) dt, the paper's upper
// median cut.
func (g Gaussian) UpperTail(x float64) float64 {
	return 0.5 * math.Erfc((x-g.Mu)/(g.Sigma*math.Sqrt2))
}

// Quantile returns the x with CDF(x) = p, computed by bisection. p outside
// (0,1) yields ±Inf.
//
//lint:ignore unused the quality KS test draws its reference sample through it
func (g Gaussian) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	lo := g.Mu - 12*g.Sigma
	hi := g.Mu + 12*g.Sigma
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if g.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// FitGaussianMLE returns the maximum-likelihood Gaussian for the sample:
// mean µ̂ = Σx/n and σ̂² = Σ(x−µ̂)²/n (the MLE uses n, not n−1; paper
// §2.3.1 argues MLE is the right estimator for the small evaluation sets).
// A minimum sigma floor keeps single-point and constant samples usable.
func FitGaussianMLE(xs []float64) (Gaussian, error) {
	if len(xs) == 0 {
		return Gaussian{}, ErrNoData
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(xs)))
	const sigmaFloor = 1e-6
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	return Gaussian{Mu: mu, Sigma: sigma}, nil
}

// Intersect returns the intersection point of the two density functions
// inside [lo, hi]: the x where a.PDF(x) == b.PDF(x). When both roots of the
// underlying quadratic fall inside the interval the one between the two
// means is preferred (that is the decision threshold the paper wants).
func Intersect(a, b Gaussian, lo, hi float64) (float64, error) {
	if lo >= hi {
		return 0, fmt.Errorf("%w: empty interval [%v,%v]", ErrNoIntersection, lo, hi)
	}
	roots := intersectionRoots(a, b)
	inMeans := func(x float64) bool {
		low, high := math.Min(a.Mu, b.Mu), math.Max(a.Mu, b.Mu)
		return x >= low && x <= high
	}
	var candidates []float64
	for _, r := range roots {
		if r >= lo && r <= hi {
			candidates = append(candidates, r)
		}
	}
	switch len(candidates) {
	case 0:
		return 0, fmt.Errorf("%w: roots %v outside [%v,%v]", ErrNoIntersection, roots, lo, hi)
	case 1:
		return candidates[0], nil
	default:
		for _, c := range candidates {
			if inMeans(c) {
				return c, nil
			}
		}
		return candidates[0], nil
	}
}

// intersectionRoots solves log φ_a(x) = log φ_b(x), a quadratic in x.
func intersectionRoots(a, b Gaussian) []float64 {
	sa2 := a.Sigma * a.Sigma
	sb2 := b.Sigma * b.Sigma
	if math.Abs(sa2-sb2) < 1e-15*(sa2+sb2) {
		// Equal variances: a single midpoint root.
		if a.Mu == b.Mu { //lint:ignore floatcmp equal-parameter degeneracy check; epsilon would merge distinct distributions
			return nil
		}
		return []float64{0.5 * (a.Mu + b.Mu)}
	}
	// A x² + B x + C = 0 with:
	A := 1/(2*sb2) - 1/(2*sa2)
	B := a.Mu/sa2 - b.Mu/sb2
	C := b.Mu*b.Mu/(2*sb2) - a.Mu*a.Mu/(2*sa2) + math.Log(b.Sigma/a.Sigma)
	disc := B*B - 4*A*C
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	return []float64{(-B - sq) / (2 * A), (-B + sq) / (2 * A)}
}
