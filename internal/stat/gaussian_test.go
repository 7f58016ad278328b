package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussianPDFKnownValues(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	// φ(0) for the standard normal is 1/√(2π) ≈ 0.3989422804.
	if got := g.PDF(0); math.Abs(got-0.3989422804014327) > 1e-12 {
		t.Errorf("PDF(0) = %v", got)
	}
	// Symmetry.
	if math.Abs(g.PDF(1.3)-g.PDF(-1.3)) > 1e-15 {
		t.Error("PDF not symmetric")
	}
}

func TestGaussianCDFKnownValues(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
	}
	for _, tt := range tests {
		if got := g.CDF(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestGaussianTailsSumToOne(t *testing.T) {
	g := Gaussian{Mu: 0.8, Sigma: 0.2}
	for _, x := range []float64{0, 0.5, 0.8, 1.0, 2.0} {
		if s := g.CDF(x) + g.UpperTail(x); math.Abs(s-1) > 1e-12 {
			t.Errorf("CDF+UpperTail at %v = %v, want 1", x, s)
		}
	}
}

func TestGaussianQuantileInvertsCDF(t *testing.T) {
	g := Gaussian{Mu: 2, Sigma: 0.7}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := g.Quantile(p)
		if got := g.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(g.Quantile(0), -1) || !math.IsInf(g.Quantile(1), 1) {
		t.Error("Quantile at 0/1 should be infinite")
	}
}

func TestFitGaussianMLE(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	g, err := FitGaussianMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-3) > 1e-12 {
		t.Errorf("Mu = %v, want 3", g.Mu)
	}
	// MLE divides by n: variance = 2, sigma = sqrt(2).
	if math.Abs(g.Sigma-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Sigma = %v, want sqrt(2)", g.Sigma)
	}
}

func TestFitGaussianMLEEmptyAndConstant(t *testing.T) {
	if _, err := FitGaussianMLE(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	g, err := FitGaussianMLE([]float64{0.7, 0.7, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if g.Sigma <= 0 {
		t.Errorf("constant sample produced sigma = %v, want floor > 0", g.Sigma)
	}
}

func TestFitGaussianMLERecoversParams(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	want := Gaussian{Mu: 0.81, Sigma: 0.05}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = want.Mu + want.Sigma*r.NormFloat64()
	}
	g, err := FitGaussianMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-want.Mu) > 0.002 {
		t.Errorf("Mu = %v, want ~%v", g.Mu, want.Mu)
	}
	if math.Abs(g.Sigma-want.Sigma) > 0.002 {
		t.Errorf("Sigma = %v, want ~%v", g.Sigma, want.Sigma)
	}
}

func TestIntersectEqualVariance(t *testing.T) {
	a := Gaussian{Mu: 0, Sigma: 1}
	b := Gaussian{Mu: 2, Sigma: 1}
	x, err := Intersect(a, b, -10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1) > 1e-12 {
		t.Errorf("Intersect = %v, want 1", x)
	}
}

func TestIntersectIsDensityCrossing(t *testing.T) {
	// Paper-like configuration: wrong classifications around a low quality
	// mean, right ones near 1 with a tighter spread.
	wrong := Gaussian{Mu: 0.45, Sigma: 0.18}
	right := Gaussian{Mu: 0.95, Sigma: 0.07}
	s, err := Intersect(wrong, right, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s <= wrong.Mu || s >= right.Mu {
		t.Errorf("threshold %v not between the means (%v, %v)", s, wrong.Mu, right.Mu)
	}
	if d := math.Abs(wrong.PDF(s) - right.PDF(s)); d > 1e-6 {
		t.Errorf("densities differ by %v at the intersection", d)
	}
}

func TestIntersectPrefersRootBetweenMeans(t *testing.T) {
	a := Gaussian{Mu: 0.3, Sigma: 0.25}
	b := Gaussian{Mu: 0.9, Sigma: 0.05}
	s, err := Intersect(a, b, -5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.3 || s > 0.9 {
		t.Errorf("threshold %v outside the means", s)
	}
}

func TestIntersectErrors(t *testing.T) {
	a := Gaussian{Mu: 0, Sigma: 1}
	b := Gaussian{Mu: 4, Sigma: 1}
	if _, err := Intersect(a, b, 0, 0); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("empty interval: err = %v", err)
	}
	// Crossing at 2 is outside [10, 20].
	if _, err := Intersect(a, b, 10, 20); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("out-of-interval: err = %v", err)
	}
	// Identical distributions never cross.
	if _, err := Intersect(a, a, -5, 5); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("identical: err = %v", err)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(mu float64, rawSigma float64, x1, x2 float64) bool {
		// Keep parameters in a physically sensible range; quality measures
		// live in [0,1] and extreme magnitudes overflow (x−µ)².
		for _, v := range []float64{mu, rawSigma, x1, x2} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		sigma := math.Abs(rawSigma) + 0.01
		g := Gaussian{Mu: mu, Sigma: sigma}
		lo, hi := x1, x2
		if lo > hi {
			lo, hi = hi, lo
		}
		return g.CDF(lo) <= g.CDF(hi)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPDFIntegratesToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Gaussian{Mu: r.Float64()*4 - 2, Sigma: 0.05 + r.Float64()}
		// Simpson integration over ±10σ.
		lo := g.Mu - 10*g.Sigma
		hi := g.Mu + 10*g.Sigma
		n := 2000
		h := (hi - lo) / float64(n)
		sum := g.PDF(lo) + g.PDF(hi)
		for i := 1; i < n; i++ {
			x := lo + float64(i)*h
			if i%2 == 1 {
				sum += 4 * g.PDF(x)
			} else {
				sum += 2 * g.PDF(x)
			}
		}
		integral := sum * h / 3
		return math.Abs(integral-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
