package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSolveExact(t *testing.T) {
	// Square, well conditioned system with known solution.
	a, _ := NewFromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// Over-determined system: the residual must be orthogonal to the
	// column space of A.
	r := rand.New(rand.NewSource(7))
	a := randomMatrix(r, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	res := SubVec(b, ax)
	at := a.T()
	proj, _ := at.MulVec(res)
	if n := Norm2(proj); n > 1e-9 {
		t.Errorf("Aᵀ·residual norm = %v, want ~0", n)
	}
}

func TestQRWideMatrixRejected(t *testing.T) {
	if _, err := FactorQR(New(2, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRRIsUpperTriangular(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomMatrix(r, 6, 4)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	rm := f.R()
	for i := 1; i < rm.Rows(); i++ {
		for j := 0; j < i; j++ {
			if rm.At(i, j) != 0 {
				t.Errorf("R(%d,%d) = %v, want 0", i, j, rm.At(i, j))
			}
		}
	}
}

func TestQRSingularDetected(t *testing.T) {
	a, _ := NewFromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ m, n int }{{5, 3}, {3, 5}, {4, 4}, {1, 1}, {10, 2}} {
		a := randomMatrix(r, shape.m, shape.n)
		d, err := FactorSVD(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", shape.m, shape.n, err)
		}
		recon := reconstruct(d)
		if !recon.Equal(a, 1e-9) {
			t.Errorf("%dx%d: U·S·Vᵀ does not reconstruct A", shape.m, shape.n)
		}
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randomMatrix(r, 8, 5)
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1] {
			t.Errorf("S not sorted: S[%d]=%v > S[%d]=%v", i, d.S[i], i-1, d.S[i-1])
		}
		if d.S[i] < 0 {
			t.Errorf("S[%d] = %v < 0", i, d.S[i])
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 4) has singular values {4, 3}.
	a, _ := NewFromRows([][]float64{{3, 0}, {0, 4}})
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.S[0]-4) > 1e-12 || math.Abs(d.S[1]-3) > 1e-12 {
		t.Errorf("S = %v, want [4 3]", d.S)
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomMatrix(r, 7, 4)
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	utu, _ := d.U.T().Mul(d.U)
	if !utu.Equal(Identity(4), 1e-9) {
		t.Error("UᵀU != I")
	}
	vtv, _ := d.V.T().Mul(d.V)
	if !vtv.Equal(Identity(4), 1e-9) {
		t.Error("VᵀV != I")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix.
	a, _ := NewFromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Rank(0); got != 1 {
		t.Errorf("Rank = %d, want 1", got)
	}
	if !math.IsInf(d.Cond(), 1) && d.Cond() < 1e12 {
		t.Errorf("Cond = %v, want very large", d.Cond())
	}
}

func TestSVDSolveMinimumNorm(t *testing.T) {
	// Under-determined consistent system: solution must satisfy A·x = b
	// and be the minimum-norm one (orthogonal to the null space).
	a, _ := NewFromRows([][]float64{{1, 1, 0}})
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.Solve([]float64{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	if math.Abs(ax[0]-2) > 1e-10 {
		t.Errorf("A·x = %v, want 2", ax[0])
	}
	want := []float64{1, 1, 0} // minimum-norm solution
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x = %v, want %v", x, want)
			break
		}
	}
}

func TestSVDSolveMatchesQROnFullRank(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randomMatrix(r, 15, 4)
	b := make([]float64, 15)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	qr, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := d.Solve(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xq {
		if math.Abs(xq[i]-xs[i]) > 1e-8 {
			t.Errorf("x[%d]: QR %v vs SVD %v", i, xq[i], xs[i])
		}
	}
}

func TestPseudoInverseProperties(t *testing.T) {
	// Moore–Penrose condition A·A⁺·A = A on a rank-deficient matrix.
	a, _ := NewFromRows([][]float64{
		{1, 2},
		{2, 4},
		{0, 1},
	})
	d, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	pinv := d.PseudoInverse(0)
	apa, _ := a.Mul(pinv)
	apa, _ = apa.Mul(a)
	if !apa.Equal(a, 1e-9) {
		t.Error("A·A⁺·A != A")
	}
	pap, _ := pinv.Mul(a)
	pap, _ = pap.Mul(pinv)
	if !pap.Equal(pinv, 1e-9) {
		t.Error("A⁺·A·A⁺ != A⁺")
	}
}

func TestSVDEmptyRejected(t *testing.T) {
	if _, err := FactorSVD(New(0, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(8)
		n := 1 + r.Intn(8)
		a := randomMatrix(r, m, n)
		d, err := FactorSVD(a)
		if err != nil {
			return false
		}
		return reconstruct(d).Equal(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func reconstruct(d *SVD) *Matrix {
	k := len(d.S)
	s := New(k, k)
	for i, sv := range d.S {
		s.Set(i, i, sv)
	}
	us, _ := d.U.Mul(s)
	recon, _ := us.Mul(d.V.T())
	return recon
}

func BenchmarkSVDTall(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorSVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVDTraining factors random matrices at the two least-squares
// shapes TrainQuickModel solves: the 36×8 classifier fit and the 114×20
// quality-FIS fit, which it solves eight times.
func BenchmarkSVDTraining(b *testing.B) {
	for _, shape := range [][2]int{{114, 20}, {36, 8}} {
		a := randomMatrix(rand.New(rand.NewSource(1)), shape[0], shape[1])
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FactorSVD(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQRSolve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 200, 10)
	rhs := make([]float64, 200)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FactorQR(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
