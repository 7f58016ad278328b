package adapt

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/quality"
)

var errTrainBoom = errors.New("boom")

// errorTrain always fails, driving the retrain-failed path.
func errorTrain(_, _ []core.Observation) (*core.Measure, retrainInfo, error) {
	return nil, retrainInfo{}, errTrainBoom
}

// TestNewConfigValidation refuses configs that would panic in New, never
// open a cycle, or leave the gate without a held-out decision.
func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "Dir and ModelPath") {
		t.Errorf("New with no paths: err = %v", err)
	}
	if _, err := New(Config{Dir: t.TempDir(), ModelPath: "m.json"}); err == nil || !strings.Contains(err.Error(), "Watcher and Handle") {
		t.Errorf("New with no watcher: err = %v", err)
	}
	handle := ckpt.NewHandle(nil)
	watcher, err := ckpt.NewModelWatcher(ckpt.WatchConfig{Path: filepath.Join(t.TempDir(), "m.json")}, handle)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"negative-window", func(c *Config) { c.WindowSize = -1 }, "must not be negative"},
		{"negative-canary", func(c *Config) { c.CanaryWindow = -1 }, "must not be negative"},
		{"floor-above-window", func(c *Config) { c.MinWindow = c.WindowSize + 1 }, "MinWindow"},
		{"floor-below-stride", func(c *Config) { c.MinWindow = validationStride - 1 }, "MinWindow"},
		{"floor-negative", func(c *Config) { c.MinWindow = -1 }, "MinWindow"},
	} {
		cfg := smallConfig()
		cfg.Dir, cfg.ModelPath, cfg.Watcher, cfg.Handle = t.TempDir(), "m.json", watcher, handle
		tc.edit(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestResumeAfterFailedCycle restarts the supervisor over a journal whose
// last cycle failed: the fail streak and cool-down must be reconstructed
// from the terminal record, so the back-off survives a process restart.
func TestResumeAfterFailedCycle(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	h := newHarness(t, dir, cfg, biasMeasure(t, 0.9), errorTrain)

	for i := 0; i < 10; i++ {
		h.sup.Decide(mkDecision(float64(i), 0.9, 0.5))
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 10})
	h.sup.Decide(mkDecision(10, 0.9, 0.5))
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	before := h.sup.Status()
	if before.FailStreak != 1 || before.Retrains != 0 || before.Triggers != 1 {
		t.Fatalf("status after failed retrain = %+v", before)
	}
	h.sup.Close()

	resumed := newHarness(t, dir, cfg, biasMeasure(t, 0.9), errorTrain)
	defer resumed.sup.Close()
	after := resumed.sup.Status()
	if after.FailStreak != before.FailStreak {
		t.Errorf("fail streak %d after resume, want %d", after.FailStreak, before.FailStreak)
	}
	if after.CooldownUntil != before.CooldownUntil {
		t.Errorf("cooldown until %v after resume, want %v", after.CooldownUntil, before.CooldownUntil)
	}
	// A trigger inside the restored cool-down stays ignored.
	if resumed.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: after.CooldownUntil - 1}) {
		t.Error("trigger inside restored cool-down was staged")
	}
	if !resumed.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: after.CooldownUntil + 1}) {
		t.Error("trigger past restored cool-down was ignored")
	}
}
