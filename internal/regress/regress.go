// Package regress implements the linear least-squares layer of the CQM
// pipeline (paper §2.2.2): fitting the linear TSK consequent functions to
// the designated output with an SVD-backed solver, exactly as the paper
// prescribes ("The single value decomposition (SVD) is used to solve the
// over-determined linear equation").
//
// A QR path is provided for well-conditioned problems.
package regress

import (
	"errors"
	"fmt"
	"slices"

	"cqm/internal/mat"
)

// Regression errors.
var (
	// ErrDimension reports mismatched design-matrix and target lengths.
	ErrDimension = errors.New("regress: dimension mismatch")
	// ErrEmpty reports a fit attempt with no samples.
	ErrEmpty = errors.New("regress: empty training data")
)

// Method selects the numerical algorithm used to solve the normal problem.
type Method int

// Supported least-squares methods. SVD is the paper's choice and the
// default; QR is faster when the design matrix is well conditioned.
const (
	MethodSVD Method = iota + 1
	MethodQR
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MethodSVD:
		return "svd"
	case MethodQR:
		return "qr"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// LeastSquares solves min ‖X·w − y‖₂ for w. X is given as rows; y runs in
// parallel with the rows. The SVD method returns the minimum-norm solution
// for rank-deficient systems instead of failing.
//
//lint:ignore unused the regress tests solve through it
func LeastSquares(x [][]float64, y []float64, method Method) ([]float64, error) {
	return LeastSquaresInto(x, y, method, new(Workspace))
}

// Workspace is reusable storage for LeastSquaresInto: the design matrix,
// the SVD's working copies and factors, and the solution. The zero value
// is ready to use; a Workspace grows to the largest problem it has solved.
// It must not be shared between goroutines.
type Workspace struct {
	x   mat.Matrix
	svd mat.SVDWork
	w   []float64
}

// LeastSquaresInto is LeastSquares over the storage of ws. With the SVD
// method the returned weights live in ws and stay valid until ws solves
// again, and repeated same-shaped solves allocate nothing; the QR method
// returns fresh weights.
func LeastSquaresInto(x [][]float64, y []float64, method Method, ws *Workspace) ([]float64, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrDimension, len(x), len(y))
	}
	if err := ws.x.SetRows(x); err != nil {
		return nil, fmt.Errorf("regress: building design matrix: %w", err)
	}
	switch method {
	case MethodQR:
		f, err := mat.FactorQR(&ws.x)
		if err != nil {
			return nil, fmt.Errorf("regress: QR factorization: %w", err)
		}
		w, err := f.Solve(y)
		if err != nil {
			return nil, fmt.Errorf("regress: QR solve: %w", err)
		}
		return w, nil
	case MethodSVD, 0: // zero value falls through to the paper's default
		d, err := mat.FactorSVDInto(&ws.x, &ws.svd)
		if err != nil {
			return nil, fmt.Errorf("regress: SVD factorization: %w", err)
		}
		ws.w = slices.Grow(ws.w[:0], ws.x.Cols())[:ws.x.Cols()]
		if err := d.SolveInto(ws.w, y, 0); err != nil {
			return nil, fmt.Errorf("regress: SVD solve: %w", err)
		}
		return ws.w, nil
	default:
		return nil, fmt.Errorf("regress: unknown method %v", method)
	}
}

// Predict evaluates the linear model w over each row of x (no intercept is
// added; include a bias column in x if needed).
//
//lint:ignore unused the least-squares tests check their fits through it
func Predict(x [][]float64, w []float64) ([]float64, error) {
	out := make([]float64, len(x))
	for i, row := range x {
		if len(row) != len(w) {
			return nil, fmt.Errorf("%w: row %d has %d features, weights %d", ErrDimension, i, len(row), len(w))
		}
		out[i] = mat.Dot(row, w)
	}
	return out, nil
}

// MSE returns the mean squared error between predictions and targets.
//
//lint:ignore unused the least-squares tests check their fits through it
func MSE(pred, y []float64) (float64, error) {
	if len(pred) != len(y) {
		return 0, fmt.Errorf("%w: %d predictions vs %d targets", ErrDimension, len(pred), len(y))
	}
	if len(y) == 0 {
		return 0, ErrEmpty
	}
	var ss float64
	for i := range y {
		d := pred[i] - y[i]
		ss += d * d
	}
	return ss / float64(len(y)), nil
}
