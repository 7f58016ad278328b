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

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies src into row i. It panics if src has the wrong length.
func (m *Matrix) SetRow(i int, src []float64) {
	if len(src) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(src), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], src)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
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

// Add returns m + b elementwise.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Sub returns m − b elementwise.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value, or 0 for empty matrices.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and all elements within
// tol of each other.
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
