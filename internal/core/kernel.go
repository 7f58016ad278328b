package core

import (
	"math"

	"cqm/internal/fuzzy"
)

// classTable is the number of class ids whose memberships the kernel
// tabulates: 0 (unknown) through 3, every id sensor.ContextByID returns.
const classTable = 4

// kernel is a quality FIS compiled for serving. It evaluates S_Q at
// v_Q = (cues, c) without building v_Q, and reports ε as a status rather
// than an error. A Measure compiles it once, when it is constructed, so a
// model generation never recompiles it per batch.
//
// It reproduces fuzzy.TSK.Eval bit for bit: every rule weight and
// consequent is accumulated in the same order as Rule.Weight and
// Rule.Consequent, with the class input (index cues) last, and the rule
// sums in the order of TSK.Eval.
type kernel struct {
	inputs int // len(v_Q): the cue count plus the class input
	rules  []kernelRule
}

// kernelRule is one compiled rule.
type kernelRule struct {
	mu, den []float64 // per cue: the Gaussian centre and 2σ², as Gaussian.Eval computes it
	coeffs  []float64 // per cue: the linear consequent coefficient
	konst   float64   // the consequent's constant term
	// classCoeff is the consequent coefficient of the class input. Only
	// the class membership is tabulated, never the product
	// classCoeff·c: Go may fuse Rule.Consequent's `out += coeff * x`
	// into one FMA (it does on arm64), which rounds differently from a
	// product rounded first and added later. Keeping the class term in
	// the same `out += coeff * x` form compiles both paths alike on every
	// architecture.
	classCoeff float64
	classMem   [classTable]float64 // the class Gaussian at ids 0..classTable-1
	class      fuzzy.Gaussian      // the class Gaussian, for any other id
}

// compileKernel compiles sys; a nil system compiles to a kernel that
// never runs, since every caller checks Measure.sys first.
func compileKernel(sys *fuzzy.TSK) kernel {
	if sys == nil {
		return kernel{}
	}
	n := sys.Inputs() - 1 // cue count
	k := kernel{inputs: sys.Inputs(), rules: make([]kernelRule, sys.NumRules())}
	params := make([]float64, 3*n*len(k.rules))
	for j := range k.rules {
		r := sys.Rule(j)
		kr := &k.rules[j]
		kr.mu, params = params[:n:n], params[n:]
		kr.den, params = params[:n:n], params[n:]
		kr.coeffs, params = params[:n:n], params[n:]
		for i := 0; i < n; i++ {
			g := r.Antecedent[i]
			kr.mu[i] = g.Mu
			kr.den[i] = 2 * g.Sigma * g.Sigma
			kr.coeffs[i] = r.Coeffs[i]
		}
		kr.class = r.Antecedent[n]
		for id := range kr.classMem {
			kr.classMem[id] = kr.class.Eval(float64(id))
		}
		kr.classCoeff = r.Coeffs[n]
		kr.konst = r.Coeffs[n+1]
	}
	return k
}

// score evaluates the quality FIS at (cues, class) and normalizes the raw
// output with L. ok is false in the ε state: a raw output outside L's
// domain, no rule activation, or a cue vector of the wrong length (the
// cases Measure.Score reports as ErrEpsilon).
//
//cqm:hotpath
func (k *kernel) score(cues []float64, class int) (q float64, ok bool) {
	if len(cues)+1 != k.inputs {
		return 0, false
	}
	c := float64(class)
	var sum, wsum float64
	for j := range k.rules {
		r := &k.rules[j]
		mu, den, coeffs := r.mu[:len(cues)], r.den[:len(cues)], r.coeffs[:len(cues)]
		w := 1.0
		for i, x := range cues {
			d := x - mu[i]
			w *= math.Exp(-d * d / den[i])
		}
		if uint(class) < classTable {
			w *= r.classMem[class]
		} else {
			w *= r.class.Eval(c)
		}
		out := r.konst
		for i, x := range cues {
			out += coeffs[i] * x
		}
		out += r.classCoeff * c
		sum += w * out
		wsum += w
	}
	if wsum <= 0 {
		return 0, false
	}
	return normalize(sum / wsum)
}
