package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"symmetric", []float64{-1, 1}, 0},
		{"typical", []float64{1, 2, 3, 4}, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance (n−1): 32/7.
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	// Population variance (n): 4 → stddev 2.
	if got := PopStdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("PopStdDev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = (%v, %v)", min, max)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p, want float64
	}{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestZeroCrossings(t *testing.T) {
	// Alternating signal crosses its mean between every pair of samples.
	xs := []float64{1, -1, 1, -1, 1}
	if got := ZeroCrossings(xs); got != 4 {
		t.Errorf("ZeroCrossings = %d, want 4", got)
	}
	if got := ZeroCrossings([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant signal ZeroCrossings = %d, want 0", got)
	}
	if got := ZeroCrossings([]float64{1}); got != 0 {
		t.Errorf("singleton ZeroCrossings = %d, want 0", got)
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
}

func TestMeanShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = xs[i] + shift
		}
		// Shifting moves the mean but not the spread.
		meanOK := math.Abs(Mean(ys)-(Mean(xs)+shift)) < 1e-6
		stdOK := math.Abs(StdDev(ys)-StdDev(xs)) < 1e-6
		return meanOK && stdOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(seed int64, rawP float64) bool {
		p := math.Mod(math.Abs(rawP), 1)
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		q := Quantile(xs, p)
		min, max := MinMax(xs)
		return q >= min-1e-12 && q <= max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
