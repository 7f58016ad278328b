// Package scenario drives the adaptation supervisor end to end under
// virtual time: recorded sensor sessions, an injected drift, the quality
// engine's trigger, and the supervisor's full react cycle. It backs the
// scenario tests and the cqmeval -adapt demo; cqmserve does not link it.
package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fault"
	"cqm/internal/feature"
	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// quickModel trains the scenario's incumbent — the same quick model the
// serving load harness uses.
func quickModel(seed int64, workers int) (*core.Measure, float64, error) {
	return serve.TrainQuickModel(seed, workers)
}

// Scenario modes.
const (
	// ModeHeal is the happy path: drift → shadow retrain → gate pass →
	// promotion → canary pass, accept quality restored.
	ModeHeal = "heal"
	// ModeQuarantine poisons the retrain window (flipped pseudo-labels) so
	// the candidate is rejected at the validation gate.
	ModeQuarantine = "quarantine"
	// ModeRollback poisons the window AND disables the gate, forcing a bad
	// promotion the canary watch must undo.
	ModeRollback = "rollback"
)

// ScenarioModes lists the modes RunScenario accepts, in demo order.
var ScenarioModes = []string{ModeHeal, ModeQuarantine, ModeRollback}

// ScenarioConfig parameterizes one self-healing scenario run.
type ScenarioConfig struct {
	// Dir is the scenario working directory (model, last-good, journal).
	Dir string
	// Mode is ModeHeal, ModeQuarantine, or ModeRollback.
	Mode string
	// Seed drives every random choice; same seed, same journal bytes.
	Seed int64
	// Workers parallelizes training (bit-identical at every setting).
	Workers int
	// Model and Threshold, when Model is non-nil, skip the in-scenario
	// quick-model training (the caller trained once for several runs).
	Model *core.Measure
	// Threshold is documented with Model.
	Threshold float64
	// Metrics, when non-nil, instruments the run.
	Metrics *obs.Registry
}

// ScenarioResult is the observable outcome of a scenario run: the journal,
// phase accept rates, and content fingerprints for bit-identity checks.
type ScenarioResult struct {
	// Mode echoes the scenario mode.
	Mode string `json:"mode"`
	// Records is the full adaptation journal.
	Records []adapt.Record `json:"records"`
	// AcceptHealthy is the accept rate over the healthy phase.
	AcceptHealthy float64 `json:"accept_healthy"`
	// AcceptDrift is the accept rate over the drift phase up to the first
	// promotion (or its end when nothing promotes).
	AcceptDrift float64 `json:"accept_drift"`
	// AcceptAfter is the accept rate over the final tail, after the loop
	// settled.
	AcceptAfter float64 `json:"accept_after"`
	// Generation is the watcher swap count at the end of the run.
	Generation int64 `json:"generation"`
	// JournalCRC fingerprints the journal bytes.
	JournalCRC string `json:"journal_crc"`
	// ModelCRC fingerprints the final serving-model artifact bytes.
	ModelCRC string `json:"model_crc"`
	// LastGoodCRC fingerprints the final last-good artifact bytes.
	LastGoodCRC string `json:"lastgood_crc"`
}

// scenarioItem is one pre-generated decision payload.
type scenarioItem struct {
	cues  []float64
	class sensor.Context
}

// genItems records sensor sessions in the given style, optionally
// degraded, and reduces them to (cues, truth) decision payloads.
func genItems(seed int64, style sensor.Style, faults []fault.SensorFault, sessions int) ([]scenarioItem, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []scenarioItem
	for s := 0; s < sessions; s++ {
		readings, err := sensor.OfficeSession(style).Run(rng)
		if err != nil {
			return nil, fmt.Errorf("scenario: recording scenario session: %w", err)
		}
		if len(faults) > 0 {
			inj := fault.NewInjector(seed+int64(s), faults...)
			if readings, err = inj.Apply(readings); err != nil {
				return nil, fmt.Errorf("scenario: injecting scenario faults: %w", err)
			}
		}
		windows, err := (feature.Windower{Size: 100}).Slide(readings)
		if err != nil {
			return nil, fmt.Errorf("scenario: windowing scenario session: %w", err)
		}
		for _, w := range windows {
			items = append(items, scenarioItem{cues: w.Cues, class: w.Truth})
		}
	}
	return items, nil
}

// driftFaults is the mid-run distribution shift: a sensor whose analog
// front-end starts saturating, compressing cue dynamics. The shift keeps
// most windows inside rule coverage (so the quality engine sees the q
// decline rather than an ε flood the Page–Hinkley detector is blind to)
// while depressing accept quality enough to trigger adaptation.
func driftFaults() []fault.SensorFault {
	return []fault.SensorFault{&fault.Saturation{Gain: 1.5}}
}

// RunScenario runs one complete self-healing scenario under virtual time:
// a healthy phase, an injected distribution shift that fires the quality
// engine's drift detector, and the supervisor's full react cycle. The run
// is a pure function of the config — same seed, same journal, same model
// bytes — which the replay test and the CI smoke pin.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	switch cfg.Mode {
	case ModeHeal, ModeQuarantine, ModeRollback:
	default:
		return nil, fmt.Errorf("scenario: unknown mode %q", cfg.Mode)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("scenario: dir must be set")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	measure, threshold := cfg.Model, cfg.Threshold
	if measure == nil {
		var err error
		measure, threshold, err = quickModel(cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
	}

	modelPath := filepath.Join(cfg.Dir, "model.json")
	if err := ckpt.WriteArtifact(modelPath, ckpt.Manifest{Kind: ckpt.KindMeasure}, measure); err != nil {
		return nil, err
	}
	handle := ckpt.NewHandle(nil)
	watcher, err := ckpt.NewModelWatcher(ckpt.WatchConfig{
		Path:          modelPath,
		DeferLastGood: true,
		Metrics:       cfg.Metrics,
	}, handle)
	if err != nil {
		return nil, err
	}
	if _, err := watcher.Poll(); err != nil {
		return nil, err
	}
	// The incumbent is the rollback target from the start.
	if err := watcher.MarkGood(); err != nil {
		return nil, err
	}

	sup, err := adapt.New(adapt.Config{
		Dir:             filepath.Join(cfg.Dir, "adapt"),
		ModelPath:       modelPath,
		Watcher:         watcher,
		Handle:          handle,
		Threshold:       threshold,
		WindowSize:      192,
		MinWindow:       96,
		MaxEpochs:       16,
		MinAgreement:    0.5,
		DisableGate:     cfg.Mode == ModeRollback,
		CanaryWindow:    48,
		CanaryTolerance: 0.15,
		CooldownBase:    30,
		Metrics:         cfg.Metrics,
		Build:           scenarioBuild(cfg.Workers),
	})
	if err != nil {
		return nil, err
	}
	defer sup.Close()

	engine := quality.NewEngine(quality.Config{
		Window:    48,
		Threshold: threshold,
		// More sensitive than the production defaults: the scenario's
		// saturation drift depresses mean q by ~0.1, which Delta 0.2
		// would tolerate forever.
		PH:        quality.PHConfig{Delta: 0.05, Lambda: 2},
		Metrics:   cfg.Metrics,
		OnTrigger: func(t quality.Trigger) { sup.Trigger(t) },
	})

	healthy, err := genItems(cfg.Seed+2, sensor.DefaultStyle(), nil, 2)
	if err != nil {
		return nil, err
	}
	drifted, err := genItems(cfg.Seed+3, sensor.DefaultStyle(), driftFaults(), 5)
	if err != nil {
		return nil, err
	}

	poison := cfg.Mode == ModeQuarantine || cfg.Mode == ModeRollback
	res := &ScenarioResult{Mode: cfg.Mode}
	t := 0.0
	var accepts, total int

	feed := func(items []scenarioItem) error {
		for _, it := range items {
			t += 0.05
			q, scoreErr := handle.Load().Score(it.cues, it.class)
			hasQ := scoreErr == nil
			accepted := hasQ && q > threshold
			engine.Observe(quality.Observation{
				Source: "pen", At: t, Q: q, HasQ: hasQ,
			})
			d := adapt.Decision{
				At: t, Cues: it.cues, Class: it.class,
				HasQ: hasQ, Accepted: accepted,
			}
			// Poisoned modes corrupt the pseudo-label channel while the
			// supervisor is still buffering (pre-cycle); the honest stream
			// resumes once the window is snapshotted. Serving telemetry
			// (Accepted) stays honest throughout.
			if poison && hasQ && sup.State() == adapt.StateIdle {
				flip := !accepted
				d.Label = &flip
			}
			sup.Decide(d)
			if err := sup.Drain(); err != nil {
				return err
			}
			if accepted {
				accepts++
			}
			total++
		}
		return nil
	}

	// Healthy phase.
	if err := feed(healthy); err != nil {
		return nil, err
	}
	res.AcceptHealthy = rate(accepts, total)

	// Drift phase: the shift is injected and the loop reacts.
	accepts, total = 0, 0
	if err := feed(drifted); err != nil {
		return nil, err
	}
	res.AcceptDrift = rate(accepts, total)

	// Tail: more drifted traffic after the loop settled (canary completes
	// in here when still open).
	accepts, total = 0, 0
	tail, err := genItems(cfg.Seed+4, sensor.DefaultStyle(), driftFaults(), 3)
	if err != nil {
		return nil, err
	}
	if err := feed(tail); err != nil {
		return nil, err
	}
	res.AcceptAfter = rate(accepts, total)

	res.Records = sup.Journal()
	res.Generation = watcher.Generation()
	if res.JournalCRC, err = adapt.FileCRC(filepath.Join(cfg.Dir, "adapt", adapt.JournalName)); err != nil {
		return nil, err
	}
	if res.ModelCRC, err = adapt.FileCRC(modelPath); err != nil {
		return nil, err
	}
	if res.LastGoodCRC, err = adapt.FileCRC(watcher.LastGoodPath()); err != nil {
		return nil, err
	}
	if _, err := adapt.VerifyJournal(filepath.Join(cfg.Dir, "adapt")); err != nil {
		return nil, err
	}
	return res, nil
}

// scenarioBuild is the shadow-retrain configuration of the scenario.
func scenarioBuild(workers int) core.BuildConfig {
	var b core.BuildConfig
	b.Clustering.Radius = 0.5
	b.Clustering.Workers = workers
	b.Hybrid.Workers = workers
	b.Hybrid.DivergenceRetries = 2
	return b
}

// rate is accepts/total, 0 when empty.
func rate(accepts, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(accepts) / float64(total)
}

// CheckScenario asserts the mode-specific acceptance criteria on a
// scenario result: the journal records the expected lifecycle, the
// invariants hold, and the serving outcome matches the story (healed,
// quarantined, or rolled back). The cqmeval -adapt smoke fails on any
// violation.
func CheckScenario(res *ScenarioResult) error {
	if err := adapt.VerifyRecords(res.Records); err != nil {
		return err
	}
	kinds := make(map[string]int)
	for _, r := range res.Records {
		kinds[r.Kind]++
	}
	need := func(kind string) error {
		if kinds[kind] == 0 {
			return fmt.Errorf("scenario: %s scenario journal has no %q record (got %v)", res.Mode, kind, kinds)
		}
		return nil
	}
	forbid := func(kind string) error {
		if kinds[kind] != 0 {
			return fmt.Errorf("scenario: %s scenario journal unexpectedly has %d %q record(s)", res.Mode, kinds[kind], kind)
		}
		return nil
	}
	switch res.Mode {
	case ModeHeal:
		for _, k := range []string{adapt.KindTrigger, adapt.KindRetrainDone, adapt.KindGatePass, adapt.KindPromoted, adapt.KindCanaryPass} {
			if err := need(k); err != nil {
				return err
			}
		}
		for _, k := range []string{adapt.KindQuarantine, adapt.KindRollback, adapt.KindRetrainFailed} {
			if err := forbid(k); err != nil {
				return err
			}
		}
		if res.AcceptAfter <= res.AcceptDrift {
			return fmt.Errorf("scenario: heal scenario did not restore accept quality: drift %.3f, after %.3f",
				res.AcceptDrift, res.AcceptAfter)
		}
		if res.ModelCRC != res.LastGoodCRC {
			return fmt.Errorf("scenario: heal scenario last-good does not hold the promoted model")
		}
	case ModeQuarantine:
		for _, k := range []string{adapt.KindTrigger, adapt.KindRetrainDone, adapt.KindQuarantine} {
			if err := need(k); err != nil {
				return err
			}
		}
		for _, k := range []string{adapt.KindPromoted, adapt.KindGatePass, adapt.KindRollback} {
			if err := forbid(k); err != nil {
				return err
			}
		}
	case ModeRollback:
		for _, k := range []string{adapt.KindTrigger, adapt.KindRetrainDone, adapt.KindGatePass, adapt.KindPromoted, adapt.KindRollback} {
			if err := need(k); err != nil {
				return err
			}
		}
		if err := forbid(adapt.KindCanaryPass); err != nil {
			return err
		}
		if res.ModelCRC != res.LastGoodCRC {
			return fmt.Errorf("scenario: rollback scenario serving model is not the restored last-good")
		}
	}
	return nil
}
