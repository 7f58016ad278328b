package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExactRecovery(t *testing.T) {
	// y = 2x₁ − 3x₂ + 1 with a bias column; noiseless data recovers the
	// coefficients exactly for both methods.
	r := rand.New(rand.NewSource(1))
	want := []float64{2, -3, 1}
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = []float64{r.NormFloat64(), r.NormFloat64(), 1}
		y[i] = want[0]*x[i][0] + want[1]*x[i][1] + want[2]
	}
	for _, method := range []Method{MethodSVD, MethodQR} {
		w, err := LeastSquares(x, y, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for j := range want {
			if math.Abs(w[j]-want[j]) > 1e-8 {
				t.Errorf("%v: w[%d] = %v, want %v", method, j, w[j], want[j])
			}
		}
	}
}

func TestLeastSquaresNoisyClose(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	want := []float64{0.5, -1.2}
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		y[i] = want[0]*x[i][0] + want[1]*x[i][1] + 0.01*r.NormFloat64()
	}
	w, err := LeastSquares(x, y, MethodSVD)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(w[j]-want[j]) > 0.01 {
			t.Errorf("w[%d] = %v, want ~%v", j, w[j], want[j])
		}
	}
}

func TestLeastSquaresRankDeficientSVD(t *testing.T) {
	// Perfectly collinear features: SVD returns the minimum-norm solution;
	// QR reports singularity.
	x := [][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	}
	y := []float64{5, 10, 15}
	w, err := LeastSquares(x, y, MethodSVD)
	if err != nil {
		t.Fatalf("SVD: %v", err)
	}
	pred, err := Predict(x, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(pred[i]-y[i]) > 1e-8 {
			t.Errorf("pred[%d] = %v, want %v", i, pred[i], y[i])
		}
	}
	if _, err := LeastSquares(x, y, MethodQR); err == nil {
		t.Error("QR on collinear design should fail")
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil, MethodSVD); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}, MethodSVD); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatch: err = %v", err)
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1}, Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestZeroValueMethodDefaultsToSVD(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{2, 4, 6}
	w, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-2) > 1e-10 {
		t.Errorf("w = %v, want [2]", w)
	}
}

func TestPredictAndMSE(t *testing.T) {
	x := [][]float64{{1, 0}, {0, 1}}
	w := []float64{2, 3}
	pred, err := Predict(x, w)
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 2 || pred[1] != 3 {
		t.Errorf("Predict = %v", pred)
	}
	mse, err := MSE(pred, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mse-2) > 1e-12 {
		t.Errorf("MSE = %v, want 2", mse)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("MSE mismatch err = %v", err)
	}
	if _, err := MSE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MSE empty err = %v", err)
	}
	if _, err := Predict([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("Predict mismatch err = %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if MethodSVD.String() != "svd" || MethodQR.String() != "qr" {
		t.Error("Method.String labels wrong")
	}
	if Method(42).String() == "" {
		t.Error("unknown Method.String empty")
	}
}

func TestResidualNeverBeatenProperty(t *testing.T) {
	// The least-squares solution minimizes the residual: perturbing the
	// weights never reduces the MSE.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(20)
		d := 1 + r.Intn(3)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			x[i] = row
			y[i] = r.NormFloat64()
		}
		w, err := LeastSquares(x, y, MethodSVD)
		if err != nil {
			return false
		}
		base, _ := Predict(x, w)
		baseMSE, _ := MSE(base, y)
		for trial := 0; trial < 5; trial++ {
			wp := make([]float64, len(w))
			for j := range wp {
				wp[j] = w[j] + 0.1*r.NormFloat64()
			}
			pred, _ := Predict(x, wp)
			mse, _ := MSE(pred, y)
			if mse < baseMSE-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLeastSquaresSVD(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), 1}
		y[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(x, y, MethodSVD); err != nil {
			b.Fatal(err)
		}
	}
}
