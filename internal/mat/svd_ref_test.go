package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceSVD is the accessor-based one-sided Jacobi SVD that FactorSVD
// replaced, frozen here as the differential oracle: FactorSVD must return
// the same bits for every input. It reaches every element through At and
// Set on the row-major working copies.
func referenceSVD(a *Matrix) (*SVD, error) {
	m, n := a.Rows(), a.Cols()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("%w: SVD of empty %dx%d matrix", ErrShape, m, n)
	}
	if m < n {
		t, err := referenceSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: t.V, S: t.S, V: t.U}, nil
	}

	w := a.Clone()
	v := Identity(n)

	const eps = 1e-15
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		offDiag := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				offDiag = true
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !offDiag {
			break
		}
	}

	s := make([]float64, n)
	u := New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm = math.Hypot(norm, w.At(i, j))
		}
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, w.At(i, j)/norm)
			}
		}
	}

	order := make([]int, n)
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
	su := New(m, n)
	sv := New(n, n)
	ss := make([]float64, n)
	for dst, src := range order {
		ss[dst] = s[src]
		for i := 0; i < m; i++ {
			su.Set(i, dst, u.At(i, src))
		}
		for i := 0; i < n; i++ {
			sv.Set(i, dst, v.At(i, src))
		}
	}
	return &SVD{U: su, S: ss, V: sv}, nil
}

// fuzzScales are the magnitudes an entry byte can pick: ordinary values,
// values whose squares underflow to subnormals or zero, and values whose
// squares or products overflow to +Inf.
var fuzzScales = [8]float64{1, 1e-3, 1e3, 1e-160, 1e160, 1e-310, 1e300, 0}

// fuzzMatrix fills an m×n matrix from data. Per column, one mode byte
// makes the column zero (mode%8 == 0), a copy of the previous column
// (mode%8 == 1) or a sign-flipped copy (mode%8 == 2); otherwise each
// entry takes two bytes, a signed mantissa and a scale from fuzzScales.
// The bytes are read cyclically, so short inputs repeat their pattern.
func fuzzMatrix(m, n int, data []byte) *Matrix {
	a := New(m, n)
	if len(data) == 0 {
		return a
	}
	k := 0
	next := func() byte {
		b := data[k%len(data)]
		k++
		return b
	}
	for j := 0; j < n; j++ {
		switch mode := next() % 8; {
		case mode == 0:
			continue
		case mode <= 2 && j > 0:
			sign := 1.0
			if mode == 2 {
				sign = -1
			}
			for i := 0; i < m; i++ {
				a.Set(i, j, sign*a.At(i, j-1))
			}
			continue
		}
		for i := 0; i < m; i++ {
			mant, scale := next(), next()
			a.Set(i, j, (float64(int(mant))-128)/16*fuzzScales[scale%8])
		}
	}
	return a
}

// ordinaryBytes encodes an m×n input for fuzzMatrix whose columns are
// all filled and whose entries are all at scale 1, like a well-posed
// least-squares design matrix. Raw random bytes instead mix in zero,
// duplicate and extreme columns, which leave few rotations to check.
func ordinaryBytes(rng *rand.Rand, m, n int) []byte {
	data := make([]byte, 0, n*(1+2*m))
	for j := 0; j < n; j++ {
		data = append(data, 3)
		for i := 0; i < m; i++ {
			data = append(data, byte(rng.Intn(256)), 0)
		}
	}
	return data
}

// sameBits reports whether x and y have the same shape and every element
// has the same bits.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// FuzzSVDDifferential checks FactorSVD against referenceSVD bit for bit
// on fuzz-chosen shapes, tall, square and wide, whose entries include
// zeros, zero and duplicate columns, and tiny and huge magnitudes. The
// row count is the first byte as given (1–255) and the column count the
// second folded into 1–24, so the seeds run at exactly the shapes they
// name: TrainQuickModel's 114×20 and 36×8 fits among them. A zero row
// count checks that both reject an empty matrix with ErrShape.
func FuzzSVDDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]uint8{{114, 20}, {36, 8}, {200, 10}, {1, 1}, {3, 5}} {
		m, n := int(shape[0]), int(shape[1])
		f.Add(shape[0], shape[1], ordinaryBytes(rng, m, n))
		raw := make([]byte, n*(1+2*m))
		rng.Read(raw)
		f.Add(shape[0], shape[1], raw)
	}
	f.Add(uint8(0), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, mr, nr uint8, data []byte) {
		m, n := int(mr), 1+(int(nr)+23)%24
		if m == 0 {
			for _, empty := range []*Matrix{New(0, n), New(n, 0)} {
				if _, err := FactorSVD(empty); !errors.Is(err, ErrShape) {
					t.Errorf("%dx%d: err = %v, want ErrShape", empty.Rows(), empty.Cols(), err)
				}
				if _, err := referenceSVD(empty); !errors.Is(err, ErrShape) {
					t.Errorf("reference %dx%d: err = %v, want ErrShape", empty.Rows(), empty.Cols(), err)
				}
			}
			return
		}
		a := fuzzMatrix(m, n, data)
		got, err := FactorSVD(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		want, err := referenceSVD(a)
		if err != nil {
			t.Fatalf("reference %dx%d: %v", m, n, err)
		}
		if !sameBits(got.S, want.S) {
			t.Errorf("%dx%d: S = %v, want %v", m, n, got.S, want.S)
		}
		for name, pair := range map[string][2]*Matrix{"U": {got.U, want.U}, "V": {got.V, want.V}} {
			g, w := pair[0], pair[1]
			if g.Rows() != w.Rows() || g.Cols() != w.Cols() || !sameBits(g.data, w.data) {
				t.Errorf("%dx%d: %s = %v, want %v", m, n, name, g, w)
			}
		}
	})
}
