package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKDEEmpty(t *testing.T) {
	if _, err := NewKDE(nil, 0); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 0.5 + 0.1*r.NormFloat64()
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simpson over a wide window.
	lo, hi := -2.0, 3.0
	n := 4000
	h := (hi - lo) / float64(n)
	sum := k.PDF(lo) + k.PDF(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * k.PDF(x)
		} else {
			sum += 2 * k.PDF(x)
		}
	}
	if integral := sum * h / 3; math.Abs(integral-1) > 1e-6 {
		t.Errorf("KDE integral = %v", integral)
	}
}

func TestKDERecoverGaussianMean(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 0.81 + 0.05*r.NormFloat64()
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The KDE's mode should sit near the true mean.
	bestX, bestD := 0.0, -1.0
	for x := 0.0; x <= 1.5; x += 0.002 {
		if d := k.PDF(x); d > bestD {
			bestX, bestD = x, d
		}
	}
	if math.Abs(bestX-0.81) > 0.02 {
		t.Errorf("mode = %v, want ~0.81", bestX)
	}
}

func TestKDEConstantSampleUsable(t *testing.T) {
	k, err := NewKDE([]float64{0.7, 0.7, 0.7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.PDF(0.7) <= 0 {
		t.Error("degenerate sample gave zero density at its value")
	}
}

func TestCrossPDFsMatchesGaussianIntersect(t *testing.T) {
	wrong := Gaussian{Mu: 0.3, Sigma: 0.15}
	right := Gaussian{Mu: 0.9, Sigma: 0.06}
	want, err := Intersect(wrong, right, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossPDFs(wrong.PDF, right.PDF, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("CrossPDFs = %v, Intersect = %v", got, want)
	}
}

func TestCrossPDFsErrors(t *testing.T) {
	g := Gaussian{Mu: 0.5, Sigma: 0.1}
	if _, err := CrossPDFs(g.PDF, g.PDF, 1, 0); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("empty interval: %v", err)
	}
	// Identical densities never produce a sign change.
	if _, err := CrossPDFs(g.PDF, g.PDF, 0, 1); !errors.Is(err, ErrNoIntersection) {
		t.Errorf("identical: %v", err)
	}
}

func TestKDEThresholdSeparatesSamplesProperty(t *testing.T) {
	// For well-separated samples, the KDE crossing lands between the two
	// group means.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		low := make([]float64, 40)
		high := make([]float64, 40)
		for i := range low {
			low[i] = 0.2 + 0.05*r.NormFloat64()
			high[i] = 0.85 + 0.05*r.NormFloat64()
		}
		kl, err := NewKDE(low, 0)
		if err != nil {
			return false
		}
		kh, err := NewKDE(high, 0)
		if err != nil {
			return false
		}
		s, err := CrossPDFs(kl.PDF, kh.PDF, 0, 1)
		if err != nil {
			return false
		}
		return s > 0.3 && s < 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
