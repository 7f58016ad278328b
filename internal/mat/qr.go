package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q orthogonal (m×m, stored implicitly) and R upper triangular.
type QR struct {
	qr   *Matrix   // packed factors: R in the upper triangle, reflectors below
	tau  []float64 // Householder scalars
	rows int
	cols int
}

// FactorQR computes the Householder QR factorization of a. It returns
// ErrShape for matrices with fewer rows than columns.
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("%w: QR requires rows >= cols, got %dx%d", ErrShape, m, n)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the norm of column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = norm
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &QR{qr: qr, tau: tau, rows: m, cols: n}, nil
}

// R returns the upper-triangular factor as an n×n matrix.
//
//lint:ignore unused TestQRRIsUpperTriangular inspects the factor through it
func (f *QR) R() *Matrix {
	r := New(f.cols, f.cols)
	for i := 0; i < f.cols; i++ {
		for j := i; j < f.cols; j++ {
			if i == j {
				r.Set(i, j, -f.tau[i])
			} else {
				r.Set(i, j, f.qr.At(i, j))
			}
		}
	}
	return r
}

// Solve solves the least-squares problem min ‖A·x − b‖₂ using the stored
// factorization. It returns ErrSingular when R has a (near-)zero diagonal.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.rows {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), f.rows)
	}
	y := make([]float64, f.rows)
	copy(y, b)
	// Apply Qᵀ to b.
	for k := 0; k < f.cols; k++ {
		if f.tau[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < f.rows; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.rows; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution against R. Pivots are judged against the largest
	// diagonal magnitude: a relative tolerance catches numerically
	// rank-deficient systems, not just exact zeros.
	var maxDiag float64
	for _, tv := range f.tau {
		if a := math.Abs(tv); a > maxDiag {
			maxDiag = a
		}
	}
	pivotTol := 1e-12 * maxDiag
	x := make([]float64, f.cols)
	for i := f.cols - 1; i >= 0; i-- {
		diag := -f.tau[i]
		if math.Abs(diag) <= pivotTol {
			return nil, fmt.Errorf("%w: negligible pivot at column %d", ErrSingular, i)
		}
		s := y[i]
		for j := i + 1; j < f.cols; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / diag
	}
	return x, nil
}
