package fuzzy

import (
	"fmt"
	"math"
)

// Gaussian is the membership function the paper uses throughout:
// F(x) = exp(−(x−µ)² / (2σ²)). Sigma must be positive for a meaningful
// function; NewGaussian enforces this.
type Gaussian struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// NewGaussian returns a Gaussian membership function. It panics on
// non-positive sigma, which is a programming error: automated construction
// always derives sigma from positive cluster radii.
//
//lint:ignore unused TestGaussianPeakAndSymmetry builds the Gaussian it checks through it
func NewGaussian(mu, sigma float64) Gaussian {
	if sigma <= 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("fuzzy: Gaussian sigma must be positive, got %v", sigma))
	}
	return Gaussian{Mu: mu, Sigma: sigma}
}

// Eval returns exp(−(x−µ)²/(2σ²)).
func (g Gaussian) Eval(x float64) float64 {
	d := x - g.Mu
	return math.Exp(-d * d / (2 * g.Sigma * g.Sigma))
}
