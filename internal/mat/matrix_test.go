package mat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	if got := m.At(2, 1); got != 6 {
		t.Errorf("At(2,1) = %v, want 6", got)
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	_, err := NewFromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m, err := NewFromRows(nil)
	if err != nil {
		t.Fatalf("NewFromRows(nil): %v", err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("shape = %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	row := []float64{1, 2}
	m, err := NewFromRows([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("NewFromRows aliases caller slice")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Errorf("At(1,0) = %v, want 7.5", m.At(1, 0))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 {
		t.Errorf("T(2,1) = %v, want 6", tr.At(2, 1))
	}
}

func TestMul(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
}

func TestString(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}})
	if s := m.String(); s == "" {
		t.Error("String returned empty")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 2)
		c := randomMatrix(r, 2, 5)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equal(abc2, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(6), 1+r.Intn(6))
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

func TestAtSetPanicValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(m *Matrix)
		want string
	}{
		{"At row", func(m *Matrix) { m.At(2, 0) }, "mat: index (2,0) out of range for 2x3 matrix"},
		{"At negative column", func(m *Matrix) { m.At(0, -1) }, "mat: index (0,-1) out of range for 2x3 matrix"},
		{"Set column", func(m *Matrix) { m.Set(1, 3, 1) }, "mat: index (1,3) out of range for 2x3 matrix"},
		{"Set negative row", func(m *Matrix) { m.Set(-1, 0, 1) }, "mat: index (-1,0) out of range for 2x3 matrix"},
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || err.Error() != tc.want || !errors.Is(err, ErrBounds) {
					t.Errorf("%s: panic %v, want an ErrBounds error %q", tc.name, err, tc.want)
				}
			}()
			tc.f(New(2, 3))
		}()
	}
}
