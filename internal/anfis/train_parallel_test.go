package anfis

import (
	"math/rand"
	"strings"
	"testing"

	"cqm/internal/cluster"
	"cqm/internal/fuzzy"
	"cqm/internal/parallel"
)

// sameSystem asserts exact parameter equality of two TSK systems. The ==
// on floats is intentional: the parallel layer's contract is bit-identical
// training, so any ULP of drift is a bug.
func sameSystem(t *testing.T, label string, want, got *fuzzy.TSK) {
	t.Helper()
	if got.NumRules() != want.NumRules() {
		t.Fatalf("%s: %d rules, want %d", label, got.NumRules(), want.NumRules())
	}
	for j := 0; j < want.NumRules(); j++ {
		wr, gr := want.Rule(j), got.Rule(j)
		for i := range wr.Antecedent {
			//lint:ignore floatcmp the parallel contract is bit-identical training, so exact equality is the assertion
			if gr.Antecedent[i].Mu != wr.Antecedent[i].Mu || gr.Antecedent[i].Sigma != wr.Antecedent[i].Sigma {
				t.Fatalf("%s: rule %d antecedent %d: (%v,%v) != (%v,%v)", label, j, i,
					gr.Antecedent[i].Mu, gr.Antecedent[i].Sigma, wr.Antecedent[i].Mu, wr.Antecedent[i].Sigma)
			}
		}
		for k := range wr.Coeffs {
			//lint:ignore floatcmp the parallel contract is bit-identical training, so exact equality is the assertion
			if gr.Coeffs[k] != wr.Coeffs[k] {
				t.Fatalf("%s: rule %d coeff %d: %v != %v", label, j, k, gr.Coeffs[k], wr.Coeffs[k])
			}
		}
	}
}

// TestTrainSerialParallelEquivalence is the training property test: the
// whole hybrid-learning trajectory — every epoch's RMSE and the final
// parameters — must agree bit-for-bit between serial and parallel runs
// for every worker count 2..8.
func TestTrainSerialParallelEquivalence(t *testing.T) {
	train := sineData(300, 5, 0.05)
	check := sineData(90, 6, 0.05)
	base, err := Build(train, BuildConfig{Clustering: cluster.SubtractiveConfig{Radius: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epochs: 8, AdaptiveRate: true, Workers: 1}
	refSys := base.Clone()
	refHist, err := Train(refSys, train, check, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 8; workers++ {
		cfg.Workers = workers
		sys := base.Clone()
		hist, err := Train(sys, train, check, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(hist.TrainRMSE) != len(refHist.TrainRMSE) {
			t.Fatalf("workers=%d: %d epochs, want %d", workers, len(hist.TrainRMSE), len(refHist.TrainRMSE))
		}
		for e := range refHist.TrainRMSE {
			//lint:ignore floatcmp the parallel contract is bit-identical training, so exact equality is the assertion
			if hist.TrainRMSE[e] != refHist.TrainRMSE[e] || hist.CheckRMSE[e] != refHist.CheckRMSE[e] {
				t.Fatalf("workers=%d epoch %d: (%v,%v) != (%v,%v)", workers, e,
					hist.TrainRMSE[e], hist.CheckRMSE[e], refHist.TrainRMSE[e], refHist.CheckRMSE[e])
			}
		}
		if hist.BestEpoch != refHist.BestEpoch || hist.Reason != refHist.Reason {
			t.Fatalf("workers=%d: best %d (%s), want %d (%s)", workers,
				hist.BestEpoch, hist.Reason, refHist.BestEpoch, refHist.Reason)
		}
		sameSystem(t, "trained", refSys, sys)
	}
}

// TestTrainWorkersValidation rejects a negative worker count up front.
func TestTrainWorkersValidation(t *testing.T) {
	train := sineData(40, 8, 0)
	sys, err := Build(train, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Train(sys, train, nil, Config{Epochs: 1, Workers: -2})
	if err == nil || !strings.Contains(err.Error(), "invalid config") {
		t.Fatalf("Workers=-2: err = %v, want invalid config", err)
	}
}

// TestBackwardPassPoolEquivalence exercises the gradient reduction in
// isolation: one step at several worker counts must move every parameter
// identically.
func TestBackwardPassPoolEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := &Data{}
	for i := 0; i < 500; i++ {
		x1, x2 := rng.Float64()*4, rng.Float64()*4
		d.X = append(d.X, []float64{x1, x2})
		d.Y = append(d.Y, x1*x2/4)
	}
	base, err := Build(d, BuildConfig{Clustering: cluster.SubtractiveConfig{Radius: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LearningRate: 0.05}.withDefaults()
	ref := base.Clone()
	backwardPass(ref, d, cfg, parallel.New(1))
	for workers := 2; workers <= 8; workers++ {
		sys := base.Clone()
		backwardPass(sys, d, cfg, parallel.New(workers))
		sameSystem(t, "backward", ref, sys)
	}
}
