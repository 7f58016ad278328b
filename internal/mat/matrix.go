package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix ready to use with the query
// methods; use New, NewFromRows or Identity to build non-empty matrices.
type Matrix struct {
	rows, cols int
	data       []float64
}

// Common matrix construction and shape errors.
var (
	// ErrShape reports incompatible matrix dimensions for an operation.
	ErrShape = errors.New("mat: incompatible matrix shapes")
	// ErrSingular reports a matrix too close to singular to solve against.
	ErrSingular = errors.New("mat: matrix is singular to working precision")
	// ErrBounds reports an out-of-range row or column index.
	ErrBounds = errors.New("mat: index out of range")
)

// New returns an r×c matrix of zeros. It panics if r or c is negative.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from a slice of equal-length rows. The input
// is copied. It returns ErrShape if rows have differing lengths.
//
//lint:ignore unused the mat, QR and SVD tests build their matrices with it
func NewFromRows(rows [][]float64) (*Matrix, error) {
	m := new(Matrix)
	if err := m.SetRows(rows); err != nil {
		return nil, err
	}
	return m, nil
}

// SetRows makes m a copy of the equal-length rows, reusing m's storage
// when it is large enough. It returns ErrShape if rows have differing
// lengths, leaving m's contents unspecified.
func (m *Matrix) SetRows(rows [][]float64) error {
	c := 0
	if len(rows) > 0 {
		c = len(rows[0])
	}
	m.reshape(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return nil
}

// reshape makes m an r×c matrix over its own storage when that is large
// enough, over new storage otherwise, and returns m. The contents are
// unspecified.
func (m *Matrix) reshape(r, c int) *Matrix {
	m.rows, m.cols = r, c
	m.data = grow(m.data, r*c)
	return m
}

// Identity returns the n×n identity matrix.
//
//lint:ignore unused FuzzSVDDifferential and the SVD tests check orthonormality against it
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j. It panics with an error
// that wraps ErrBounds if the indices are out of range.
func (m *Matrix) At(i, j int) float64 {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j. It panics like At if
// the indices are out of range.
func (m *Matrix) Set(i, j int, v float64) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	m.data[i*m.cols+j] = v
}

// indexError is the panic value of an out-of-range At or Set. The
// unsigned compares there also reject negative indices, and the message
// is formatted only when the panic is printed or inspected, which keeps
// both accessors within the compiler's inlining budget: a call to a
// formatting helper alone would exceed it.
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	return fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", e.i, e.j, e.rows, e.cols)
}

func (e indexError) Unwrap() error { return ErrBounds }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
//
//lint:ignore unused the QR and SVD tests reconstruct their inputs with it
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·b. It returns ErrShape if the inner
// dimensions disagree.
//
//lint:ignore unused the SVD tests reconstruct their inputs with it
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix–vector product m·v.
//
//lint:ignore unused the QR and SVD solve tests check residuals with it
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, rv := range row {
			sum += rv * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// Equal reports whether m and b have the same shape and all elements within
// tol of each other.
//
//lint:ignore unused the SVD tests compare reconstructions with it
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
