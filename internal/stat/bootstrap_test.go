package stat

import (
	"errors"
	"math/rand"
	"testing"
)

func TestBootstrapPairedThreshold(t *testing.T) {
	// Quality scores: wrong around 0.2, right around 0.9.
	r := rand.New(rand.NewSource(5))
	var xs []float64
	var labels []bool
	for i := 0; i < 16; i++ {
		xs = append(xs, 0.9+0.04*r.NormFloat64())
		labels = append(labels, true)
	}
	for i := 0; i < 8; i++ {
		xs = append(xs, 0.2+0.1*r.NormFloat64())
		labels = append(labels, false)
	}
	threshold := func(q []float64, lab []bool) (float64, error) {
		var right, wrong []float64
		for i, v := range q {
			if lab[i] {
				right = append(right, v)
			} else {
				wrong = append(wrong, v)
			}
		}
		if len(right) == 0 || len(wrong) == 0 {
			return 0, ErrNoData
		}
		gr, err := FitGaussianMLE(right)
		if err != nil {
			return 0, err
		}
		gw, err := FitGaussianMLE(wrong)
		if err != nil {
			return 0, err
		}
		s, err := Intersect(gw, gr, 0, 1)
		if err != nil {
			return 0.5 * (gw.Mu + gr.Mu), nil
		}
		return s, nil
	}
	iv, err := BootstrapPaired(xs, labels, threshold, 400, 0.9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0.2 || iv.Hi > 1.0 || iv.Lo >= iv.Hi {
		t.Errorf("threshold interval [%v, %v] implausible", iv.Lo, iv.Hi)
	}
}

func TestBootstrapPairedValidation(t *testing.T) {
	stat := func(q []float64, l []bool) (float64, error) { return 0, nil }
	if _, err := BootstrapPaired([]float64{1}, []bool{true, false}, stat, 100, 0.9, 1); !errors.Is(err, ErrNoData) {
		t.Errorf("mismatched: %v", err)
	}
	if _, err := BootstrapPaired([]float64{1}, []bool{true}, stat, 100, 2, 1); err == nil {
		t.Error("bad level accepted")
	}
}
