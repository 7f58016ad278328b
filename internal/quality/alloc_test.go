package quality

import (
	"testing"

	"cqm/internal/obs"
)

// TestObserveSteadyStateZeroAlloc guards the //cqm:hotpath contract on
// Engine.Observe: once a source's tracking state exists (first sight)
// and between KS strides, folding an observation must not allocate —
// with or without a metrics registry attached (cqmserve runs with one).
// First-sight and stride work carry //cqm:coldpath or waivers in the lint
// walk; this test pins the steady state at zero.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no registry", Config{Window: 32, Threshold: 0.6}},
		{"registry", Config{Window: 32, Threshold: 0.6, Metrics: obs.NewRegistry()}},
	} {
		e := NewEngine(c.cfg)
		for _, o := range streamFor("pen", 100, 1) {
			e.Observe(o)
		}
		o := Observation{Source: "pen", At: 1000, HasQ: true, Q: 0.9}
		if allocs := testing.AllocsPerRun(500, func() {
			o.At++
			e.Observe(o)
		}); allocs != 0 {
			t.Errorf("%s: Observe steady state allocates %v per run, want 0", c.name, allocs)
		}
	}
}
