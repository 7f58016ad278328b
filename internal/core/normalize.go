package core

import (
	"errors"
	"fmt"
)

// ErrEpsilon is the error state ε of the normalization function L (paper
// §2.1.3): the raw FIS output lies too far outside [0,1] to be mapped back
// in a semantically correct way. Appliances treat ε as "discard".
var ErrEpsilon = errors.New("core: quality measure in error state ε")

// Normalize implements the paper's normalization function L:
//
//	L(x) = x      if 0 ≤ x ≤ 1
//	L(x) = −x     if −0.5 ≤ x < 0
//	L(x) = 1 − x  if 1 < x ≤ 1.5   (folded back toward the designated 1)
//	L(x) = ε      otherwise
//
// Values slightly below 0 represent "zero with a mapping error", values
// slightly above 1 "one with a mapping error"; both fold back into [0,1].
// Anything beyond ±0.5 of the designated outputs is semantically
// uninterpretable and becomes the error state.
//
// Note the (1, 1.5] branch follows the paper's formula literally: 1−x is
// negative there, representing the *residual* distance past the designated
// one; its magnitude is what matters, so the fold uses |1−x| = x−1
// reflected about the designated output, giving 1−(x−1) = 2−x. See
// NormalizeLiteral for the verbatim formula and the tests for the
// distinction.
func Normalize(x float64) (float64, error) {
	q, ok := normalize(x)
	if !ok {
		return 0, fmt.Errorf("%w: raw output %v", ErrEpsilon, x)
	}
	return q, nil
}

// normalize is L with ε as a status: ok is false in the error state. The
// serving kernel calls it directly, so an ε frame costs no error value;
// Normalize and NormalizeLiteral wrap it.
func normalize(x float64) (q float64, ok bool) {
	switch {
	case x >= 0 && x <= 1:
		return x, true
	case x >= -0.5 && x < 0:
		// Distance |x| from the designated 0, folded into the interval.
		return -x, true
	case x > 1 && x <= 1.5:
		// Distance x−1 past the designated 1, folded back symmetrically.
		return 2 - x, true
	default:
		return 0, false
	}
}

// NormalizeLiteral applies the paper's formula exactly as printed,
// including the 1−x branch whose result is negative on (1, 1.5]. It exists
// for the ablation experiment comparing the literal formula against the
// symmetric fold; production code uses Normalize.
//
//lint:ignore unused TestNormalizeLiteralMatchesPaperFormula checks Normalize against it
func NormalizeLiteral(x float64) (float64, error) {
	q, err := Normalize(x)
	if err == nil && x > 1 {
		return 1 - x, nil
	}
	return q, err
}

// IsEpsilon reports whether err represents the ε error state.
func IsEpsilon(err error) bool {
	return errors.Is(err, ErrEpsilon)
}

// DegradedRaw is the sentinel raw output assigned to a classification
// whose input window was flagged as degraded (stuck axis, saturation,
// sampling gap, clock skew). It sits outside L's interpretable domain
// [−0.5, 1.5] by construction, so degraded inputs reach appliances through
// the same ε error state as any other uninterpretable quality — the
// paper's single "discard this" channel, not a parallel mechanism.
const DegradedRaw = 2.0

// ScoreDegraded returns the quality of a degraded-input classification:
// always the ε error state, produced by routing DegradedRaw through the
// normalization function L.
func ScoreDegraded() (float64, error) {
	return Normalize(DegradedRaw)
}
