package scenario

import (
	"fmt"
	"path/filepath"
	"strings"

	"cqm/internal/obs"
)

// DemoConfig parameterizes the self-healing demo sweep.
type DemoConfig struct {
	// Dir is the working directory; each run gets a subdirectory.
	Dir string
	// Seed drives the whole sweep.
	Seed int64
	// Workers parallelizes training.
	Workers int
	// Metrics, when non-nil, instruments every run.
	Metrics *obs.Registry
}

// RunDemo runs the full self-healing demo: every scenario mode once, each
// checked against its mode-specific acceptance criteria, plus a replay of
// the heal scenario at a different worker count that must reproduce the
// journal and model bytes exactly. It returns a rendered report; any
// lifecycle or determinism violation returns an error (the CI smoke's
// failure signal).
func RunDemo(cfg DemoConfig) (string, error) {
	model, threshold, err := quickModel(cfg.Seed, cfg.Workers)
	if err != nil {
		return "", fmt.Errorf("scenario: training demo incumbent: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Self-healing lifecycle demo (seed %d)\n", cfg.Seed)
	fmt.Fprintf(&b, "%-12s %-42s %8s %8s %8s\n", "mode", "journal", "healthy", "drift", "after")
	results := make(map[string]*ScenarioResult, len(ScenarioModes))
	for _, mode := range ScenarioModes {
		res, err := RunScenario(ScenarioConfig{
			Dir:       filepath.Join(cfg.Dir, mode),
			Mode:      mode,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Model:     model,
			Threshold: threshold,
			Metrics:   cfg.Metrics,
		})
		if err != nil {
			return b.String(), fmt.Errorf("scenario: %s scenario: %w", mode, err)
		}
		if err := CheckScenario(res); err != nil {
			return b.String(), err
		}
		results[mode] = res
		kinds := make([]string, len(res.Records))
		for i, r := range res.Records {
			kinds[i] = r.Kind
		}
		fmt.Fprintf(&b, "%-12s %-42s %8.3f %8.3f %8.3f\n",
			mode, strings.Join(kinds, ">"), res.AcceptHealthy, res.AcceptDrift, res.AcceptAfter)
	}

	// Replay determinism: the same heal scenario at a different worker
	// count must produce byte-identical journal and model artifacts.
	replayWorkers := 4
	if cfg.Workers == 4 {
		replayWorkers = 1
	}
	replay, err := RunScenario(ScenarioConfig{
		Dir:       filepath.Join(cfg.Dir, "replay"),
		Mode:      ModeHeal,
		Seed:      cfg.Seed,
		Workers:   replayWorkers,
		Model:     model,
		Threshold: threshold,
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		return b.String(), fmt.Errorf("scenario: replay scenario: %w", err)
	}
	base := results[ModeHeal]
	if replay.JournalCRC != base.JournalCRC || replay.ModelCRC != base.ModelCRC {
		return b.String(), fmt.Errorf(
			"scenario: replay at %d workers diverged: journal %s vs %s, model %s vs %s",
			replayWorkers, replay.JournalCRC, base.JournalCRC, replay.ModelCRC, base.ModelCRC)
	}
	fmt.Fprintf(&b, "replay at %d workers: journal %s, model %s (bit-identical)\n",
		replayWorkers, replay.JournalCRC, replay.ModelCRC)
	return b.String(), nil
}
