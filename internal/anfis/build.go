package anfis

import (
	"fmt"

	"cqm/internal/cluster"
	"cqm/internal/fuzzy"
	"cqm/internal/regress"
)

// BuildConfig parameterizes structure identification (paper §2.2.1–2.2.2).
type BuildConfig struct {
	// Clustering configures the subtractive clustering that determines the
	// number of rules and the initial membership functions. The zero value
	// uses Chiu's defaults.
	Clustering cluster.SubtractiveConfig
	// LSMethod selects the least-squares solver for the initial consequent
	// fit; the zero value is the paper's SVD.
	LSMethod regress.Method
	// ConstantConsequents fits zero-order (constant) consequents instead
	// of the paper's first-order linear ones — the ablation behind the
	// paper's remark that "the linear functional consequence is used,
	// since the results … are better".
	ConstantConsequents bool
}

// Build performs automated FIS construction: subtractive clustering over
// the input rows determines m rules whose Gaussian antecedents are centered
// on the cluster centers with genfis2 widths, then a global least-squares
// fit (SVD) determines the linear consequents against the targets.
func Build(data *Data, cfg BuildConfig) (*fuzzy.TSK, error) {
	if err := data.Validate(0); err != nil {
		return nil, err
	}
	res, err := cluster.Subtractive(data.X, cfg.Clustering)
	if err != nil {
		return nil, fmt.Errorf("anfis: structure identification: %w", err)
	}
	return BuildFromCenters(data, res.Centers, res.Sigmas, cfg)
}

// BuildFromCenters assembles a TSK system with one rule per externally
// supplied cluster center (mountain clustering, FCM, k-means — the
// clustering ablation) and fits the consequents by least squares. sigmas
// gives the per-dimension Gaussian widths; a single-element slice is
// broadcast across dimensions.
func BuildFromCenters(data *Data, centers [][]float64, sigmas []float64, cfg BuildConfig) (*fuzzy.TSK, error) {
	if err := data.Validate(0); err != nil {
		return nil, err
	}
	if len(centers) == 0 {
		return nil, ErrNoRules
	}
	n := len(data.X[0])
	sigmaAt := func(i int) float64 {
		if len(sigmas) == 1 {
			return sigmas[0]
		}
		if i < len(sigmas) {
			return sigmas[i]
		}
		return 0
	}
	rules := make([]fuzzy.Rule, len(centers))
	for j, center := range centers {
		if len(center) != n {
			return nil, fmt.Errorf("%w: center %d has %d dims, want %d", ErrMismatch, j, len(center), n)
		}
		ante := make([]fuzzy.Gaussian, n)
		for i := 0; i < n; i++ {
			s := sigmaAt(i)
			if s <= 0 {
				return nil, fmt.Errorf("%w: sigma %v for dimension %d", ErrMismatch, s, i)
			}
			ante[i] = fuzzy.Gaussian{Mu: center[i], Sigma: s}
		}
		rules[j] = fuzzy.Rule{
			Antecedent: ante,
			Coeffs:     make([]float64, n+1), // filled by the consequent fit
		}
	}
	sys, err := fuzzy.NewTSK(n, rules)
	if err != nil {
		return nil, fmt.Errorf("anfis: assembling initial FIS: %w", err)
	}
	if cfg.ConstantConsequents {
		err = FitConstantConsequents(sys, data, cfg.LSMethod)
	} else {
		err = FitConsequents(sys, data, cfg.LSMethod)
	}
	if err != nil {
		return nil, fmt.Errorf("anfis: initial consequent fit: %w", err)
	}
	return sys, nil
}

// FitConsequents performs the ANFIS forward pass: with the membership
// functions fixed, the TSK output is linear in the consequent coefficients
//
//	S(v) = Σ_j ŵ_j(v)·(a_j·v + b_j),  ŵ_j = w_j / Σ_k w_k,
//
// so one global least-squares solve over rows
// [ŵ_1·v, ŵ_1, …, ŵ_m·v, ŵ_m] fits all m·(n+1) coefficients at once.
// Samples that activate no rule are skipped (they carry no gradient and no
// linear information).
func FitConsequents(sys *fuzzy.TSK, data *Data, method regress.Method) error {
	return fitConsequents(sys, data, method, new(fitWork))
}

// FitConstantConsequents fits zero-order consequents: each rule gets only
// a constant term, so the design matrix has one column per rule holding
// the normalized firing strength. Linear coefficients are zeroed.
func FitConstantConsequents(sys *fuzzy.TSK, data *Data, method regress.Method) error {
	return fitConstantConsequents(sys, data, method, new(fitWork))
}

// fitWork is the storage a forward pass leaves to the next one: the
// design rows and targets, one evaluation trace and the least-squares
// workspace. Train keeps one for all its epochs.
type fitWork struct {
	flat    []float64
	cols    int
	rows    [][]float64
	targets []float64
	detail  fuzzy.Detail
	ls      regress.Workspace
}

// reset empties the design for up to n rows of cols values each.
func (w *fitWork) reset(n, cols int) {
	if cap(w.flat) < n*cols {
		w.flat = make([]float64, n*cols)
	}
	if cap(w.rows) < n {
		w.rows = make([][]float64, 0, n)
		w.targets = make([]float64, 0, n)
	}
	w.cols = cols
	w.rows, w.targets = w.rows[:0], w.targets[:0]
}

// add appends a design row with target y and returns the row for the
// caller to fill; its contents are unspecified.
func (w *fitWork) add(y float64) []float64 {
	k := len(w.rows)
	row := w.flat[k*w.cols : (k+1)*w.cols : (k+1)*w.cols]
	w.rows = append(w.rows, row)
	w.targets = append(w.targets, y)
	return row
}

func fitConsequents(sys *fuzzy.TSK, data *Data, method regress.Method, work *fitWork) error {
	if err := data.Validate(sys.Inputs()); err != nil {
		return err
	}
	n := sys.Inputs()
	m := sys.NumRules()
	work.reset(data.Len(), m*(n+1))
	detail := &work.detail
	for i, v := range data.X {
		if err := sys.EvalDetailInto(v, detail); err != nil {
			// No rule fired for this sample: skip it.
			continue
		}
		row := work.add(data.Y[i])
		for j := 0; j < m; j++ {
			wn := detail.Weights[j] / detail.WeightSum
			base := j * (n + 1)
			for k := 0; k < n; k++ {
				row[base+k] = wn * v[k]
			}
			row[base+n] = wn
		}
	}
	if len(work.rows) == 0 {
		return fmt.Errorf("%w: no sample activates any rule", ErrEmptyData)
	}
	w, err := regress.LeastSquaresInto(work.rows, work.targets, method, &work.ls)
	if err != nil {
		return fmt.Errorf("anfis: consequent least squares: %w", err)
	}
	for j := 0; j < m; j++ {
		rule := sys.Rule(j)
		copy(rule.Coeffs, w[j*(n+1):(j+1)*(n+1)])
		if err := sys.SetRule(j, rule); err != nil {
			return fmt.Errorf("anfis: writing consequents of rule %d: %w", j, err)
		}
	}
	return nil
}

func fitConstantConsequents(sys *fuzzy.TSK, data *Data, method regress.Method, work *fitWork) error {
	if err := data.Validate(sys.Inputs()); err != nil {
		return err
	}
	n := sys.Inputs()
	m := sys.NumRules()
	work.reset(data.Len(), m)
	detail := &work.detail
	for i, v := range data.X {
		if err := sys.EvalDetailInto(v, detail); err != nil {
			continue
		}
		row := work.add(data.Y[i])
		for j := 0; j < m; j++ {
			row[j] = detail.Weights[j] / detail.WeightSum
		}
	}
	if len(work.rows) == 0 {
		return fmt.Errorf("%w: no sample activates any rule", ErrEmptyData)
	}
	w, err := regress.LeastSquaresInto(work.rows, work.targets, method, &work.ls)
	if err != nil {
		return fmt.Errorf("anfis: constant consequent least squares: %w", err)
	}
	for j := 0; j < m; j++ {
		rule := sys.Rule(j)
		for k := 0; k < n; k++ {
			rule.Coeffs[k] = 0
		}
		rule.Coeffs[n] = w[j]
		if err := sys.SetRule(j, rule); err != nil {
			return fmt.Errorf("anfis: writing constant consequent of rule %d: %w", j, err)
		}
	}
	return nil
}
