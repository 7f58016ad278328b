package core

import (
	"testing"

	"cqm/internal/fuzzy"
	"cqm/internal/sensor"
)

// scoreBatchAllocBudget is the allocation count of a serial
// 64-observation ScoreBatch: its two result slices. The scoring itself
// allocates nothing (TestScoreBatchIntoAllocs pins ScoreBatchInto at 0);
// this test keeps the wrapper from regressing silently.
const scoreBatchAllocBudget = 2

// TestScoreBatchAllocBaseline guards the ScoreBatch wrapper's allocation
// count at its two result slices.
func TestScoreBatchAllocBaseline(t *testing.T) {
	sys, err := fuzzy.NewTSK(2, []fuzzy.Rule{
		{Antecedent: []fuzzy.Gaussian{{Mu: 0, Sigma: 0.3}, {Mu: 0, Sigma: 1}}, Coeffs: []float64{0, 0, 0}},
		{Antecedent: []fuzzy.Gaussian{{Mu: 1, Sigma: 0.3}, {Mu: 1, Sigma: 1}}, Coeffs: []float64{0, 0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureFromSystem(sys)
	obs := make([]Observation, 64)
	for i := range obs {
		obs[i] = Observation{Cues: []float64{0.5}, Class: sensor.Context(1)}
	}
	if _, _, err := m.ScoreBatch(obs, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := m.ScoreBatch(obs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > scoreBatchAllocBudget {
		t.Errorf("ScoreBatch(64 obs, serial) allocates %v per batch, budget %d", allocs, scoreBatchAllocBudget)
	}
}
