package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// TSK inference errors.
var (
	// ErrNoRules reports evaluation of a system without rules.
	ErrNoRules = errors.New("fuzzy: TSK system has no rules")
	// ErrArity reports an input vector whose length does not match the
	// system's input dimension.
	ErrArity = errors.New("fuzzy: input arity mismatch")
	// ErrNoActivation reports an input that fires no rule: every rule
	// weight underflowed to zero, so the weighted sum average is undefined.
	ErrNoActivation = errors.New("fuzzy: no rule activation for input")
	// ErrBadRule reports a structurally invalid rule.
	ErrBadRule = errors.New("fuzzy: malformed rule")
)

// Rule is one TSK rule: a Gaussian antecedent per input dimension and a
// linear consequent f(v) = Coeffs[0]·v_0 + … + Coeffs[n−1]·v_(n−1) +
// Coeffs[n] (the final coefficient is the constant term a_(n+2)j of the
// paper).
type Rule struct {
	Antecedent []Gaussian `json:"antecedent"`
	Coeffs     []float64  `json:"coeffs"`
}

// validate checks the internal consistency of the rule for n inputs.
func (r *Rule) validate(n int) error {
	if len(r.Antecedent) != n {
		return fmt.Errorf("%w: %d antecedents for %d inputs", ErrBadRule, len(r.Antecedent), n)
	}
	if len(r.Coeffs) != n+1 {
		return fmt.Errorf("%w: %d coefficients for %d inputs (want %d)", ErrBadRule, len(r.Coeffs), n, n+1)
	}
	for i, mf := range r.Antecedent {
		if mf.Sigma <= 0 || math.IsNaN(mf.Sigma) {
			return fmt.Errorf("%w: antecedent %d has sigma %v", ErrBadRule, i, mf.Sigma)
		}
	}
	return nil
}

// Weight returns the rule's firing strength w(v) = Π_i F_i(v_i) using the
// product T-norm, as in the paper.
func (r *Rule) Weight(v []float64) float64 {
	w := 1.0
	for i, mf := range r.Antecedent {
		w *= mf.Eval(v[i])
	}
	return w
}

// Consequent returns the linear consequent value f(v).
func (r *Rule) Consequent(v []float64) float64 {
	n := len(v)
	out := r.Coeffs[n] // constant term
	for i, x := range v {
		out += r.Coeffs[i] * x
	}
	return out
}

// TSK is a Takagi–Sugeno–Kang fuzzy inference system with Gaussian
// antecedent membership functions and first-order (linear) consequents.
type TSK struct {
	inputs int
	rules  []Rule
}

// NewTSK returns a TSK system over n inputs with the given rules. Every
// rule is validated against n.
func NewTSK(n int, rules []Rule) (*TSK, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d inputs", ErrArity, n)
	}
	if len(rules) == 0 {
		return nil, ErrNoRules
	}
	owned := make([]Rule, len(rules))
	for j := range rules {
		if err := rules[j].validate(n); err != nil {
			return nil, fmt.Errorf("rule %d: %w", j, err)
		}
		owned[j] = cloneRule(rules[j])
	}
	return &TSK{inputs: n, rules: owned}, nil
}

func cloneRule(r Rule) Rule {
	out := Rule{
		Antecedent: make([]Gaussian, len(r.Antecedent)),
		Coeffs:     make([]float64, len(r.Coeffs)),
	}
	copy(out.Antecedent, r.Antecedent)
	copy(out.Coeffs, r.Coeffs)
	return out
}

// Inputs returns the input dimension n.
func (t *TSK) Inputs() int { return t.inputs }

// NumRules returns the number of rules m.
func (t *TSK) NumRules() int { return len(t.rules) }

// Rule returns a copy of rule j.
func (t *TSK) Rule(j int) Rule {
	return cloneRule(t.rules[j])
}

// SetRule replaces rule j after validation; the ANFIS trainer uses this to
// write back tuned parameters.
func (t *TSK) SetRule(j int, r Rule) error {
	if j < 0 || j >= len(t.rules) {
		return fmt.Errorf("%w: rule index %d of %d", ErrBadRule, j, len(t.rules))
	}
	if err := r.validate(t.inputs); err != nil {
		return err
	}
	t.rules[j] = cloneRule(r)
	return nil
}

// Clone returns a deep copy of the system.
func (t *TSK) Clone() *TSK {
	rules := make([]Rule, len(t.rules))
	for j := range t.rules {
		rules[j] = cloneRule(t.rules[j])
	}
	return &TSK{inputs: t.inputs, rules: rules}
}

// Eval computes the weighted sum average
// S(v) = Σ_j w_j(v)·f_j(v) / Σ_j w_j(v).
// It returns ErrNoActivation when every rule weight underflows to zero.
//
// Unlike EvalDetail, which materializes the per-rule trace for the ANFIS
// trainer, Eval accumulates the two sums in scalars: this is the
// per-observation scoring kernel and must not allocate.
//
//cqm:hotpath
func (t *TSK) Eval(v []float64) (float64, error) {
	if len(t.rules) == 0 {
		return 0, ErrNoRules
	}
	if len(v) != t.inputs {
		//lint:ignore hotpath-alloc cold arity-error path; never taken by a validated pipeline
		return 0, fmt.Errorf("%w: got %d inputs, want %d", ErrArity, len(v), t.inputs)
	}
	var sum, wsum float64
	for j := range t.rules {
		w := t.rules[j].Weight(v)
		sum += w * t.rules[j].Consequent(v)
		wsum += w
	}
	if wsum <= 0 {
		//lint:ignore hotpath-alloc cold underflow path; fires only when no rule activates at all
		return 0, fmt.Errorf("%w: %v", ErrNoActivation, v)
	}
	return sum / wsum, nil
}

// Detail is a full evaluation trace: per-rule firing strengths and
// consequent values alongside the aggregated output. The ANFIS trainer
// consumes these to compute gradients without re-evaluating membership
// functions.
type Detail struct {
	Weights     []float64 // w_j(v)
	Consequents []float64 // f_j(v)
	WeightSum   float64   // Σ_j w_j(v)
	Output      float64   // S(v)
}

// EvalDetail computes the output together with the evaluation trace.
func (t *TSK) EvalDetail(v []float64) (Detail, error) {
	var d Detail
	if err := t.EvalDetailInto(v, &d); err != nil {
		return Detail{}, err
	}
	return d, nil
}

// EvalDetailInto is EvalDetail writing the trace into d, over the storage
// of d.Weights and d.Consequents when it is large enough: a trainer that
// passes the same d for every sample allocates once. On error d's contents
// are unspecified.
func (t *TSK) EvalDetailInto(v []float64, d *Detail) error {
	if len(t.rules) == 0 {
		return ErrNoRules
	}
	if len(v) != t.inputs {
		return fmt.Errorf("%w: got %d inputs, want %d", ErrArity, len(v), t.inputs)
	}
	m := len(t.rules)
	if cap(d.Weights) < m || cap(d.Consequents) < m {
		d.Weights, d.Consequents = make([]float64, m), make([]float64, m)
	}
	d.Weights, d.Consequents = d.Weights[:m], d.Consequents[:m]
	d.WeightSum, d.Output = 0, 0
	for j := range t.rules {
		w := t.rules[j].Weight(v)
		f := t.rules[j].Consequent(v)
		d.Weights[j] = w
		d.Consequents[j] = f
		d.WeightSum += w
		d.Output += w * f
	}
	if d.WeightSum <= 0 {
		return fmt.Errorf("%w: %v", ErrNoActivation, v)
	}
	d.Output /= d.WeightSum
	return nil
}

// String renders the rule base in the linguistic form of the paper:
// "IF F_1j(v_1) AND … THEN f_j(v)".
func (t *TSK) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TSK FIS: %d inputs, %d rules\n", t.inputs, len(t.rules))
	for j, r := range t.rules {
		fmt.Fprintf(&sb, "R%d: IF ", j+1)
		for i, mf := range r.Antecedent {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(&sb, "v%d is N(%.3g, %.3g)", i+1, mf.Mu, mf.Sigma)
		}
		sb.WriteString(" THEN f = ")
		for i := 0; i < t.inputs; i++ {
			fmt.Fprintf(&sb, "%+.3g·v%d ", r.Coeffs[i], i+1)
		}
		fmt.Fprintf(&sb, "%+.3g\n", r.Coeffs[t.inputs])
	}
	return sb.String()
}
