package scenario

import (
	"encoding/json"
	"sync"
	"testing"

	"cqm/internal/adapt"
	"cqm/internal/core"
)

// trainedOnce caches the quick incumbent: every scenario test shares the
// same seed-42 model, and training it once keeps the suite fast.
var trainedOnce struct {
	sync.Once
	model     *core.Measure
	threshold float64
	err       error
}

func scenarioConfig(t *testing.T, mode string, seed int64, workers int) ScenarioConfig {
	t.Helper()
	trainedOnce.Do(func() {
		trainedOnce.model, trainedOnce.threshold, trainedOnce.err = quickModel(42, 4)
	})
	if trainedOnce.err != nil {
		t.Fatalf("training incumbent: %v", trainedOnce.err)
	}
	return ScenarioConfig{
		Dir:       t.TempDir(),
		Mode:      mode,
		Seed:      seed,
		Workers:   workers,
		Model:     trainedOnce.model,
		Threshold: trainedOnce.threshold,
	}
}

func kindsOf(records []adapt.Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		out[i] = r.Kind
	}
	return out
}

func TestScenarioHeal(t *testing.T) {
	res, err := RunScenario(scenarioConfig(t, ModeHeal, 42, 4))
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	t.Logf("kinds=%v healthy=%.3f drift=%.3f after=%.3f gen=%d",
		kindsOf(res.Records), res.AcceptHealthy, res.AcceptDrift, res.AcceptAfter, res.Generation)
	if err := CheckScenario(res); err != nil {
		b, _ := json.MarshalIndent(res.Records, "", "  ")
		t.Fatalf("CheckScenario: %v\nrecords: %s", err, b)
	}
}

func TestScenarioQuarantine(t *testing.T) {
	res, err := RunScenario(scenarioConfig(t, ModeQuarantine, 42, 4))
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	t.Logf("kinds=%v healthy=%.3f drift=%.3f after=%.3f",
		kindsOf(res.Records), res.AcceptHealthy, res.AcceptDrift, res.AcceptAfter)
	if err := CheckScenario(res); err != nil {
		b, _ := json.MarshalIndent(res.Records, "", "  ")
		t.Fatalf("CheckScenario: %v\nrecords: %s", err, b)
	}
}

func TestScenarioRollback(t *testing.T) {
	res, err := RunScenario(scenarioConfig(t, ModeRollback, 42, 4))
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	t.Logf("kinds=%v healthy=%.3f drift=%.3f after=%.3f",
		kindsOf(res.Records), res.AcceptHealthy, res.AcceptDrift, res.AcceptAfter)
	if err := CheckScenario(res); err != nil {
		b, _ := json.MarshalIndent(res.Records, "", "  ")
		t.Fatalf("CheckScenario: %v\nrecords: %s", err, b)
	}
}

// TestScenarioReplayBitIdentical runs the heal scenario twice, at one and
// at four workers, and demands byte-identical journals and model bytes:
// the adaptation loop is a pure function of the seed.
func TestScenarioReplayBitIdentical(t *testing.T) {
	base, err := RunScenario(scenarioConfig(t, ModeHeal, 42, 1))
	if err != nil {
		t.Fatalf("RunScenario workers=1: %v", err)
	}
	for _, workers := range []int{1, 4} {
		res, err := RunScenario(scenarioConfig(t, ModeHeal, 42, workers))
		if err != nil {
			t.Fatalf("RunScenario workers=%d: %v", workers, err)
		}
		if res.JournalCRC != base.JournalCRC {
			t.Errorf("workers=%d journal CRC %s, want %s", workers, res.JournalCRC, base.JournalCRC)
		}
		if res.ModelCRC != base.ModelCRC {
			t.Errorf("workers=%d model CRC %s, want %s", workers, res.ModelCRC, base.ModelCRC)
		}
		if res.LastGoodCRC != base.LastGoodCRC {
			t.Errorf("workers=%d lastgood CRC %s, want %s", workers, res.LastGoodCRC, base.LastGoodCRC)
		}
	}
}
