package quality

import (
	"math"
	"sort"
)

// PHConfig parameterizes the Page–Hinkley decline detector. The zero
// value takes the documented defaults.
type PHConfig struct {
	// Delta is the drift insensitivity: declines smaller than Delta below
	// the running mean never accumulate. The q stream is bimodal (right
	// classifications score near 1, wrong ones near 0), so Delta is set
	// well above incidental wobble: an isolated misclassification
	// (q ≈ 0.1 against a ≈ 0.9 running mean) contributes ≈ 0.6 to the
	// statistic, and only a run of them alarms. Default 0.2.
	Delta float64 `json:"delta"`
	// Lambda is the alarm threshold on the cumulative decline statistic.
	// With the default Delta, roughly five consecutive collapsed windows
	// fire — a sustained quality collapse, not a bad window. Default 3.
	Lambda float64 `json:"lambda"`
	// MinCount is the minimum number of observations since the last reset
	// before an alarm may fire, guarding against cold-start noise.
	// Default 8.
	MinCount int `json:"min_count"`
}

// withDefaults fills zero fields with the documented defaults.
func (c PHConfig) withDefaults() PHConfig {
	if c.Delta <= 0 {
		c.Delta = 0.2
	}
	if c.Lambda <= 0 {
		c.Lambda = 3
	}
	if c.MinCount == 0 {
		c.MinCount = 8
	}
	return c
}

// PageHinkley is the one-sided Page–Hinkley test for a decrease in the
// mean of a stream — the classic sequential change detector, here watching
// the q stream for quality collapses. It is a pure function of the
// observation sequence: no randomness, no clock, so detection epochs
// replay bit-identically. After an alarm the detector resets and starts
// accumulating afresh, so repeated drifts fire repeated alarms.
type PageHinkley struct {
	cfg  PHConfig
	n    int
	mean float64
	m    float64
}

// NewPageHinkley returns a detector with the given configuration (zero
// fields take defaults).
//
//lint:ignore unused the Page-Hinkley tests build their detector with it
func NewPageHinkley(cfg PHConfig) *PageHinkley {
	return &PageHinkley{cfg: cfg.withDefaults()}
}

// Add folds one observation in and reports whether the decline alarm
// fired on it. Firing resets the detector.
func (p *PageHinkley) Add(x float64) bool {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.m += p.mean - x - p.cfg.Delta
	if p.m < 0 {
		p.m = 0
	}
	if p.n >= p.cfg.MinCount && p.m > p.cfg.Lambda {
		p.Reset()
		return true
	}
	return false
}

// Stat returns the current cumulative decline statistic m_t.
func (p *PageHinkley) Stat() float64 { return p.m }

// Count returns the observations folded in since the last reset.
func (p *PageHinkley) Count() int { return p.n }

// Reset restarts accumulation, as after a fired alarm or a model reload.
func (p *PageHinkley) Reset() {
	p.n = 0
	p.mean = 0
	p.m = 0
}

// KSConfig parameterizes the Kolmogorov–Smirnov drift test of the live
// window against the reference mixture. The zero value takes defaults.
type KSConfig struct {
	// Coefficient is the critical-value coefficient c(α); the live window
	// of n quality values is declared drifting when
	// D_n > BaselineD + Coefficient/√n (see Reference.BaselineD).
	// Default 1.36 (α ≈ 0.05).
	Coefficient float64 `json:"coefficient"`
	// MinCount is the minimum window occupancy before the test runs.
	// Default 16.
	MinCount int `json:"min_count"`
	// Every is the per-source observation stride between in-stream
	// evaluations (the test also always runs at report time). Default 16.
	Every int `json:"every"`
}

// withDefaults fills zero fields with the documented defaults.
func (c KSConfig) withDefaults() KSConfig {
	if c.Coefficient <= 0 {
		c.Coefficient = 1.36
	}
	if c.MinCount == 0 {
		c.MinCount = 16
	}
	if c.Every == 0 {
		c.Every = 16
	}
	return c
}

// KSResult is one evaluation of the KS drift test.
type KSResult struct {
	// Stat is the KS statistic D_n = sup|F_n − F_ref|.
	Stat float64 `json:"stat"`
	// Critical is the threshold D_n was compared against.
	Critical float64 `json:"critical"`
	// N is the number of quality values tested.
	N int `json:"n"`
	// Drifting reports Stat > Critical.
	Drifting bool `json:"drifting"`
	// Evaluated reports whether the test ran at all (enough data and a
	// reference present).
	Evaluated bool `json:"evaluated"`
}

// KSAgainst runs the one-sample Kolmogorov–Smirnov test of qs against the
// reference mixture CDF. The reference's BaselineD — the training
// sample's own distance to the fitted mixture, i.e. the parametric
// approximation error — is added to the critical value, so the test
// alarms on drift beyond what the Gaussian fit already missed at
// training time. The input slice is not modified.
//
// The engine invokes this every KS.Every observations, so its scratch
// allocation is stride-amortized off the per-observation path.
//
//cqm:coldpath
func KSAgainst(ref *Reference, qs []float64, cfg KSConfig) KSResult {
	cfg = cfg.withDefaults()
	if ref == nil || len(qs) < cfg.MinCount {
		return KSResult{}
	}
	d := ksDistance(ref, qs)
	crit := ref.BaselineD + cfg.Coefficient/math.Sqrt(float64(len(qs)))
	return KSResult{Stat: d, Critical: crit, N: len(qs), Drifting: d > crit, Evaluated: true}
}

// ksDistance returns the raw KS statistic D_n = sup|F_n − F_ref| of qs
// against the reference mixture CDF, with no baseline discount.
func ksDistance(ref *Reference, qs []float64) float64 {
	sorted := make([]float64, len(qs))
	copy(sorted, qs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := ref.CDF(x)
		if above := float64(i+1)/n - f; above > d {
			d = above
		}
		if below := f - float64(i)/n; below > d {
			d = below
		}
	}
	return d
}
