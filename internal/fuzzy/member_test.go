package fuzzy

import (
	"math"
	"testing"
)

func TestGaussianPeakAndSymmetry(t *testing.T) {
	g := NewGaussian(2, 0.5)
	if got := g.Eval(2); got != 1 {
		t.Errorf("Eval at mu = %v, want 1", got)
	}
	if math.Abs(g.Eval(1.3)-g.Eval(2.7)) > 1e-15 {
		t.Error("Gaussian not symmetric around mu")
	}
	// One sigma out: exp(-1/2).
	if got := g.Eval(2.5); math.Abs(got-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("Eval(mu+sigma) = %v, want exp(-1/2)", got)
	}
}

func TestGaussianPanicsOnBadSigma(t *testing.T) {
	for _, sigma := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGaussian sigma=%v did not panic", sigma)
				}
			}()
			NewGaussian(0, sigma)
		}()
	}
}
