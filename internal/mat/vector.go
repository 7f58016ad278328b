package mat

import (
	"fmt"
	"math"
)

// Vector helpers operate on plain []float64 slices so callers can pass cue
// vectors around without wrapping them in a type.

// Dot returns the dot product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i, av := range a {
		sum += av * b[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of v, computed with scaling to avoid
// overflow.
//
//lint:ignore unused TestQRLeastSquaresResidualOrthogonal measures residuals with it
func Norm2(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			ssq = 1 + ssq*(scale/ax)*(scale/ax)
			scale = ax
		} else {
			ssq += (ax / scale) * (ax / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// AddVec returns a + b as a new slice.
//
//lint:ignore unused TestVecArithmetic checks it alongside SubVec, which the QR tests use
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SubVec returns a − b as a new slice.
//
//lint:ignore unused TestQRLeastSquaresResidualOrthogonal forms residuals with it
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec returns s·v as a new slice.
//
//lint:ignore unused TestVecArithmetic checks it alongside SubVec, which the QR tests use
func ScaleVec(s float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// Distance returns the Euclidean distance between a and b.
//
//lint:ignore unused TestDistance checks it alongside SquaredDistance, which clustering uses
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Distance length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SquaredDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
