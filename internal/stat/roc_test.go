package stat

import (
	"math"
	"testing"
)

func TestROCPerfectSeparation(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	pos := []bool{false, false, true, true}
	curve := ROC(scores, pos)
	if len(curve) == 0 {
		t.Fatal("empty ROC")
	}
	if auc := AUC(curve); math.Abs(auc-1) > 1e-12 {
		t.Errorf("AUC = %v, want 1 for perfect separation", auc)
	}
}

func TestROCChanceLevel(t *testing.T) {
	// Scores identical for both classes: AUC must be 0.5.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	pos := []bool{true, false, true, false}
	if auc := AUC(ROC(scores, pos)); math.Abs(auc-0.5) > 1e-9 {
		t.Errorf("AUC = %v, want 0.5", auc)
	}
}

func TestROCInverted(t *testing.T) {
	// Scores anti-correlated with the labels: AUC ~ 0.
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	pos := []bool{false, false, true, true}
	if auc := AUC(ROC(scores, pos)); auc > 1e-9 {
		t.Errorf("AUC = %v, want 0", auc)
	}
}

func TestROCEmptyAndMismatched(t *testing.T) {
	if ROC(nil, nil) != nil {
		t.Error("ROC(nil) should be nil")
	}
	if ROC([]float64{1}, []bool{true, false}) != nil {
		t.Error("mismatched lengths should return nil")
	}
}

func TestROCRatesAreValid(t *testing.T) {
	scores := []float64{0.3, 0.5, 0.5, 0.7, 0.2, 0.95}
	pos := []bool{false, true, false, true, false, true}
	for _, p := range ROC(scores, pos) {
		if p.TPR < 0 || p.TPR > 1 || p.FPR < 0 || p.FPR > 1 {
			t.Errorf("invalid rates: %+v", p)
		}
	}
}
