package mat

import (
	"fmt"
	"math"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ of an
// m×n matrix. U is m×n with orthonormal columns, V is n×n orthogonal, and
// S holds the singular values in non-increasing order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// maxJacobiSweeps bounds the one-sided Jacobi iteration; convergence is
// typically reached in well under 30 sweeps for the shapes we handle.
const maxJacobiSweeps = 60

// SVDWork is reusable storage for FactorSVDInto: the column-major working
// copies of A and V, the unsorted singular values, the sort order and the
// returned decomposition. The zero value is ready to use; an SVDWork grows
// to the largest shape it has factored. It must not be shared between
// goroutines.
type SVDWork struct {
	w, v, s []float64
	order   []int
	su, sv  Matrix
	ss      []float64
	svd     SVD
}

// FactorSVD computes the thin SVD of a using one-sided Jacobi rotations.
// The method orthogonalizes the columns of a working copy of A by plane
// rotations accumulated into V; the singular values are the resulting
// column norms and U the normalized columns.
//
// The working copies of A and V are column-major, so each column the
// rotations touch is one contiguous slice. Every sum, rotation, norm and
// comparison is evaluated in the same form and order as on the row-major
// matrices, so the result is the same to the bit; the differential fuzz
// test in svd_ref_test.go holds it to that.
//
// Matrices with more columns than rows are handled by decomposing the
// transpose and swapping U and V.
func FactorSVD(a *Matrix) (*SVD, error) {
	return FactorSVDInto(a, new(SVDWork))
}

// FactorSVDInto is FactorSVD over the storage of ws: the returned
// decomposition, its matrices and its singular values live in ws and stay
// valid until ws factors again. Reusing one ws across same-shaped
// factorizations allocates nothing.
func FactorSVDInto(a *Matrix, ws *SVDWork) (*SVD, error) {
	m, n := a.Rows(), a.Cols()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("%w: SVD of empty %dx%d matrix", ErrShape, m, n)
	}
	// ws.w takes the column-major copy of the tall one of A and Aᵀ, whose
	// column j is w[j*rows:(j+1)*rows]. For a wide A that copy is A's
	// row-major data as it stands.
	ws.w = grow(ws.w, m*n)
	if m < n {
		copy(ws.w, a.data)
		d := ws.factor(n, m)
		d.U, d.V = d.V, d.U
		return d, nil
	}
	for i := 0; i < m; i++ {
		for j, x := range a.data[i*n : (i+1)*n] {
			ws.w[j*m+i] = x
		}
	}
	return ws.factor(m, n), nil
}

// factor decomposes the m×n matrix, m ≥ n, whose column-major copy is in
// ws.w, overwriting that copy.
func (ws *SVDWork) factor(m, n int) *SVD {
	w := ws.w // working copy whose columns get orthogonalized
	v := grow(ws.v, n*n)
	ws.v = v
	clear(v)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const eps = 1e-15
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		offDiag := false
		for p := 0; p < n-1; p++ {
			wp, vp := w[p*m:(p+1)*m], v[p*n:(p+1)*n]
			// The sums of pair (p, q); rotating (p, q) yields those of
			// (p, q+1) in the same pass over wp.
			alpha, beta, gamma := sums(wp, w[(p+1)*m:(p+2)*m])
			for q := p + 1; q < n; q++ {
				wq, vq := w[q*m:(q+1)*m], v[q*n:(q+1)*n]
				var next []float64
				if q+1 < n {
					next = w[(q+1)*m : (q+2)*m]
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					if next != nil {
						alpha, beta, gamma = sums(wp, next)
					}
					continue
				}
				offDiag = true
				// Compute the Jacobi rotation that zeroes gamma.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(vp, vq, c, s)
				if next == nil {
					rotate(wp, wq, c, s)
				} else {
					alpha, beta, gamma = rotateSums(wp, wq, next, c, s)
				}
			}
		}
		if !offDiag {
			break
		}
	}

	// Extract singular values and normalize the columns of w in place
	// into U; a column whose norm is not positive becomes zero.
	s := grow(ws.s, n)
	ws.s = s
	for j := 0; j < n; j++ {
		col := w[j*m : (j+1)*m]
		var norm float64
		for _, x := range col {
			norm = math.Hypot(norm, x)
		}
		s[j] = norm
		if norm > 0 {
			for i, x := range col {
				col[i] = x / norm
			}
		} else {
			clear(col)
		}
	}

	// Sort singular values (and the corresponding columns) descending.
	order := grow(ws.order, n)
	ws.order = order
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		max := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[max]] {
				max = j
			}
		}
		order[i], order[max] = order[max], order[i]
	}
	su, sv := ws.su.reshape(m, n), ws.sv.reshape(n, n)
	ss := grow(ws.ss, n)
	ws.ss = ss
	for dst, src := range order {
		ss[dst] = s[src]
		for i, x := range w[src*m : (src+1)*m] {
			su.data[i*n+dst] = x
		}
		for i, x := range v[src*n : (src+1)*n] {
			sv.data[i*n+dst] = x
		}
	}
	ws.svd = SVD{U: su, S: ss, V: sv}
	return &ws.svd
}

// sums returns the Jacobi sums of the column pair (x, y): α = Σx², β = Σy²
// and γ = Σxy, each accumulated in element order.
func sums(x, y []float64) (alpha, beta, gamma float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		alpha += xi * xi
		beta += yi * yi
		gamma += xi * yi
	}
	return alpha, beta, gamma
}

// rotate applies the plane rotation (c, s) to the column pair (x, y):
// x ← c·x − s·y and y ← s·x + c·y, element by element.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// rotateSums is rotate(x, y, c, s) followed by sums(x, z), in one pass:
// each sum takes the rotated x[i] as it is stored, in the same order, so
// the bits are those of the two separate loops. The sum loop is bound by
// the latency of its adds, which hides the rotation's arithmetic.
func rotateSums(x, y, z []float64, c, s float64) (alpha, beta, gamma float64) {
	y, z = y[:len(x)], z[:len(x)]
	for i, xi := range x {
		yi, zi := y[i], z[i]
		rx := c*xi - s*yi
		x[i] = rx
		y[i] = s*xi + c*yi
		alpha += rx * rx
		beta += zi * zi
		gamma += rx * zi
	}
	return alpha, beta, gamma
}

// grow returns buf resliced to length n, or a new slice when buf's
// capacity is smaller. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Rank returns the numerical rank: the number of singular values larger
// than tol·max(S). A non-positive tol selects a default based on machine
// epsilon and the matrix size.
func (d *SVD) Rank(tol float64) int {
	if len(d.S) == 0 {
		return 0
	}
	if tol <= 0 {
		tol = float64(maxInt(d.U.Rows(), d.V.Rows())) * 2.220446049250313e-16
	}
	cut := tol * d.S[0]
	rank := 0
	for _, sv := range d.S {
		if sv > cut {
			rank++
		}
	}
	return rank
}

// Cond returns the 2-norm condition number S_max/S_min, or +Inf when the
// smallest singular value is zero.
func (d *SVD) Cond() float64 {
	if len(d.S) == 0 {
		return 0
	}
	min := d.S[len(d.S)-1]
	if min == 0 {
		return math.Inf(1)
	}
	return d.S[0] / min
}

// Solve computes the minimum-norm least-squares solution of A·x = b using
// the decomposition, truncating singular values below tol·max(S)
// (a non-positive tol selects a machine-epsilon default).
func (d *SVD) Solve(b []float64, tol float64) ([]float64, error) {
	x := make([]float64, d.V.Rows())
	if err := d.SolveInto(x, b, tol); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve writing the solution into x, which must have one
// element per column of A.
func (d *SVD) SolveInto(x, b []float64, tol float64) error {
	m := d.U.Rows()
	n := d.V.Rows()
	if len(b) != m {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), m)
	}
	if len(x) != n {
		return fmt.Errorf("%w: solution length %d, want %d", ErrShape, len(x), n)
	}
	if tol <= 0 {
		tol = float64(maxInt(m, n)) * 2.220446049250313e-16
	}
	var cut float64
	if len(d.S) > 0 {
		cut = tol * d.S[0]
	}
	// y = Σ_j (u_jᵀ b / s_j) v_j for s_j above the cutoff.
	clear(x)
	for j, sv := range d.S {
		if sv <= cut {
			continue
		}
		var uj float64
		for i := 0; i < m; i++ {
			uj += d.U.At(i, j) * b[i]
		}
		scale := uj / sv
		for i := 0; i < n; i++ {
			x[i] += scale * d.V.At(i, j)
		}
	}
	return nil
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse built from the
// decomposition with the given singular-value tolerance (non-positive for
// the default).
func (d *SVD) PseudoInverse(tol float64) *Matrix {
	m := d.U.Rows()
	n := d.V.Rows()
	if tol <= 0 {
		tol = float64(maxInt(m, n)) * 2.220446049250313e-16
	}
	var cut float64
	if len(d.S) > 0 {
		cut = tol * d.S[0]
	}
	pinv := New(n, m)
	for j, sv := range d.S {
		if sv <= cut {
			continue
		}
		inv := 1 / sv
		for r := 0; r < n; r++ {
			vr := d.V.At(r, j) * inv
			if vr == 0 {
				continue
			}
			for c := 0; c < m; c++ {
				pinv.Set(r, c, pinv.At(r, c)+vr*d.U.At(c, j))
			}
		}
	}
	return pinv
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
