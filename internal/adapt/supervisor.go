package adapt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// KindAdaptWindow is the ckpt artifact kind of a snapshotted retrain
// window.
const KindAdaptWindow = "adapt-window"

// Artifact file names inside a cycle directory.
const (
	// WindowArtifactName holds the pseudo-labelled retrain window.
	WindowArtifactName = "window.json"
	// CandidateArtifactName holds the shadow-retrained candidate measure.
	CandidateArtifactName = "candidate.json"
)

// State is the supervisor's position in the adaptation state machine.
type State int

// Supervisor states. The journal is authoritative: each state is exactly
// "the last record of the open cycle" (idle when no cycle is open).
const (
	// StateIdle: no cycle open; triggers are considered.
	StateIdle State = iota
	// StateRetraining: a cycle is open, the window is snapshotted, the
	// shadow retrain has not committed yet.
	StateRetraining
	// StateGated: a candidate exists; the validation gate has not ruled.
	StateGated
	// StatePromoting: the gate passed; the hot swap has not committed.
	StatePromoting
	// StateCanary: the candidate serves; the canary watch is counting.
	StateCanary
)

// String returns the state's journal-friendly name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRetraining:
		return "retraining"
	case StateGated:
		return "gated"
	case StatePromoting:
		return "promoting"
	case StateCanary:
		return "canary"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Decision is one live scoring decision fed to the supervisor: the
// observation's cues and class, and the accept/discard/ε outcome. Accepted
// decisions become pseudo-labels (target 1), discarded ones negatives
// (target 0); ε decisions are excluded from the retrain window but count
// against the accept rate.
type Decision struct {
	// At is the decision's virtual time in seconds.
	At float64
	// Cues is the classifier input of the scored observation. Decide
	// copies it, so the caller may reuse the slice.
	Cues []float64
	// Class is the classified context.
	Class sensor.Context
	// HasQ is false for ε decisions.
	HasQ bool
	// Accepted reports q > threshold — the serving outcome, counted by
	// the baseline and canary accept rates.
	Accepted bool
	// Label, when non-nil, overrides Accepted as the pseudo-label stored
	// in the retrain window. Label corruption is exactly the failure the
	// validation gate quarantines; the scenario harness uses this to
	// poison the training signal without distorting serving telemetry.
	Label *bool
}

// Config parameterizes a Supervisor. Dir, ModelPath, Watcher, and Handle
// are required; everything else has defaults.
type Config struct {
	// Dir is the adaptation state directory: the journal plus one
	// subdirectory per cycle (window snapshot, retrain checkpoints,
	// candidate).
	Dir string
	// ModelPath is the watched serving-model artifact promotions overwrite.
	ModelPath string
	// Watcher hot-reloads ModelPath; it should run with DeferLastGood so
	// the last-good copy stays the rollback target until a canary pass.
	Watcher *ckpt.ModelWatcher
	// Handle is the serving handle; the gate scores the incumbent from it.
	Handle *ckpt.Handle
	// Threshold is the acceptance threshold shared with serving.
	Threshold float64
	// WindowSize bounds the pseudo-labelled retrain buffer. Default 256.
	WindowSize int
	// MinWindow is the buffered-observation floor below which a trigger
	// waits. Default 64.
	MinWindow int
	// Build configures the shadow retrain (clustering, hybrid learning).
	// Observer, Resume, and Halt are managed by the supervisor.
	Build core.BuildConfig
	// MaxEpochs bounds the shadow retrain. Default 30.
	MaxEpochs int
	// MinAgreement is the accept/discard agreement floor of the validation
	// gate. Default 0.5.
	MinAgreement float64
	// RMSESlack is how far past the incumbent's validation RMSE the
	// candidate may land and still pass the gate's regression guard (the
	// pseudo-labels are the incumbent's own decisions, so a strict win is
	// unattainable by construction). Default 0.15.
	RMSESlack float64
	// DisableGate promotes every retrained candidate unconditionally —
	// the fault-injection knob the rollback scenario and chaos tests use.
	// The gate's numbers are still computed and journaled.
	DisableGate bool
	// CanaryWindow is the number of post-promotion decisions the canary
	// watch spans. Default 64.
	CanaryWindow int
	// CanaryTolerance is the absolute accept-rate drop below the
	// pre-promotion baseline that triggers rollback. Default 0.15.
	CanaryTolerance float64
	// CooldownBase is the virtual-seconds cool-down after a cycle ends; bad
	// outcomes double it per consecutive failure (exponential back-off).
	// Default 60.
	CooldownBase float64
	// CooldownMax caps the exponential back-off. Default 64×CooldownBase.
	CooldownMax float64
	// Metrics, when non-nil, registers the cqm_adapt_* series.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.WindowSize == 0 {
		c.WindowSize = 256
	}
	if c.MinWindow == 0 {
		c.MinWindow = 64
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 30
	}
	if c.MinAgreement == 0 {
		c.MinAgreement = 0.5
	}
	if c.RMSESlack == 0 {
		c.RMSESlack = 0.15
	}
	if c.CanaryWindow == 0 {
		c.CanaryWindow = 64
	}
	if c.CanaryTolerance == 0 {
		c.CanaryTolerance = 0.15
	}
	if c.CooldownBase == 0 {
		c.CooldownBase = 60
	}
	if c.CooldownMax == 0 {
		c.CooldownMax = 64 * c.CooldownBase
	}
	return c
}

// windowPayload is the adapt-window artifact payload: the pseudo-labelled
// observations a cycle retrains on, plus the trigger that caused them to
// be snapshotted.
type windowPayload struct {
	// Source is the triggering quality stream.
	Source string `json:"source"`
	// TriggerKind is the detector that fired.
	TriggerKind string `json:"trigger_kind"`
	// At is the trigger's virtual time.
	At float64 `json:"at"`
	// Observations are the buffered decisions, oldest first, with
	// Correct carrying the accept pseudo-label.
	Observations []core.Observation `json:"observations"`
}

// retrainInfo summarizes a finished shadow retrain for the journal.
type retrainInfo struct {
	epochs     int
	stopReason string
}

// cycleCtx is the open cycle's in-memory context, reconstructible from the
// journal at any record boundary.
type cycleCtx struct {
	cycle          int64
	at             float64
	source         string
	triggerKind    string
	windowName     string
	windowHash     string
	windowLen      int
	candidateName  string
	baselineAccept float64
	canarySeen     int
	canaryAccepted int
	// canaryClosed is set by the decision that completes the canary
	// window; the counts are then frozen and canaryAt holds the verdict's
	// clamped time until Step journals it.
	canaryClosed bool
	canaryAt     float64
}

// Supervisor is the adaptation state machine. Trigger and Decide are the
// fast inputs (safe to call from scoring and engine hooks): they only
// update memory. Step performs at most one journaled transition per call,
// and every journaled transition happens in Step. All methods are safe for
// concurrent use; determinism is the caller's contract — feed decisions
// and triggers in a deterministic order and call Step at deterministic
// points, and the journal, artifacts, and promoted models replay
// bit-identically.
type Supervisor struct {
	cfg Config
	met adaptMetrics

	mu    sync.Mutex
	jr    *Journal
	state State
	cycle int64
	cur   cycleCtx

	// Pseudo-label ring: non-ε decisions, oldest overwritten first. Each
	// slot keeps its cue slice, so a full ring takes new cues without
	// allocating.
	window     []core.Observation
	windowNext int
	windowN    int
	// Accept-outcome ring over every decision (ε included), for the
	// pre-promotion baseline.
	recent     []bool
	recentNext int
	recentN    int

	pending       *quality.Trigger
	cooldownUntil float64
	failStreak    int
	// training is true while a shadow retrain runs with the lock released;
	// it makes concurrent Step calls no-ops so only one retrain is in
	// flight.
	training bool
	// lastErr is the newest swallowed internal error (journal append or
	// last-good persistence failing on a path with no caller to return
	// to), exposed in Status so journal/disk divergence is visible.
	lastErr string

	// trainFn is the shadow-retrain implementation; tests stub it to avoid
	// real training in flap-storm and transition tests.
	trainFn func(train, check []core.Observation, cycleDir, windowHash string) (*core.Measure, retrainInfo, error)
}

// New opens (or resumes) a supervisor over Dir, recovering the state
// machine from the journal: committed records are replayed, the open cycle's
// context is reconstructed, and the pending transition re-runs on its
// persisted inputs at the next Step.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" || cfg.ModelPath == "" {
		return nil, fmt.Errorf("adapt: Dir and ModelPath must be set")
	}
	if cfg.Watcher == nil || cfg.Handle == nil {
		return nil, fmt.Errorf("adapt: Watcher and Handle must be set")
	}
	jr, err := OpenJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:    cfg,
		met:    newAdaptMetrics(cfg.Metrics),
		jr:     jr,
		window: make([]core.Observation, cfg.WindowSize),
		recent: make([]bool, cfg.CanaryWindow),
	}
	s.trainFn = s.realTrain
	s.replay()
	s.publishState()
	return s, nil
}

// replay reconstructs the supervisor state from the committed journal.
func (s *Supervisor) replay() {
	for _, r := range s.jr.Records() {
		if r.Cycle > s.cycle {
			s.cycle = r.Cycle
		}
		switch r.Kind {
		case KindTrigger:
			s.cur = cycleCtx{
				cycle:          r.Cycle,
				at:             r.At,
				source:         r.Source,
				triggerKind:    r.TriggerKind,
				windowName:     r.Window,
				windowHash:     r.WindowHash,
				windowLen:      r.WindowLen,
				baselineAccept: r.BaselineAccept,
			}
			s.state = StateRetraining
		case KindRetrainDone:
			s.cur.candidateName = r.Candidate
			s.state = StateGated
		case KindGatePass:
			s.state = StatePromoting
		case KindPromoted:
			// Canary counters are zero at every record boundary by
			// construction, so restarting them here is exact.
			s.cur.canarySeen = 0
			s.cur.canaryAccepted = 0
			s.state = StateCanary
		case KindCanaryPass:
			s.failStreak = 0
			s.cooldownUntil = r.CooldownUntil
			s.state = StateIdle
		case KindRetrainFailed, KindQuarantine, KindRollback:
			s.failStreak++
			s.cooldownUntil = r.CooldownUntil
			s.state = StateIdle
		case KindAbandoned:
			s.failStreak = 0
			s.cooldownUntil = r.CooldownUntil
			s.state = StateIdle
		}
	}
}

// Trigger offers a drift trigger to the supervisor. It is fast and
// non-blocking-safe for the quality engine's OnTrigger hook — the trigger
// is only staged here; the journaled cycle open happens at the next Step.
// It reports whether the trigger was staged (false: ignored by cool-down,
// an open cycle, or an already-staged trigger).
func (s *Supervisor) Trigger(t quality.Trigger) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateIdle || s.pending != nil || t.At < s.cooldownUntil {
		s.met.triggersIgnored.Inc()
		return false
	}
	s.pending = &t
	return true
}

// Decide feeds one live scoring decision: it maintains the pseudo-label
// window and the accept-rate baseline, and advances the canary watch when
// one is open. The decision that completes the canary window freezes the
// verdict's counts and time; the next Step rules on it and journals the
// outcome. Decide touches memory only and, once every window slot holds
// cues of the decision's length, does not allocate.
func (s *Supervisor) Decide(d Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent[s.recentNext] = d.Accepted
	s.recentNext = (s.recentNext + 1) % len(s.recent)
	if s.recentN < len(s.recent) {
		s.recentN++
	}
	if d.HasQ {
		label := d.Accepted
		if d.Label != nil {
			label = *d.Label
		}
		slot := &s.window[s.windowNext]
		slot.Cues = append(slot.Cues[:0], d.Cues...) //lint:ignore hotpath-alloc grows a ring slot only until it holds one decision's cues; a full window reuses every slot
		slot.Class = d.Class
		slot.Correct = label
		s.windowNext = (s.windowNext + 1) % len(s.window)
		if s.windowN < len(s.window) {
			s.windowN++
		}
		s.met.windowSize.Set(float64(s.windowN))
	}
	if s.state == StateCanary && !s.cur.canaryClosed {
		s.cur.canarySeen++
		if d.Accepted {
			s.cur.canaryAccepted++
		}
		if s.cur.canarySeen >= s.cfg.CanaryWindow {
			// Client-supplied decision stamps may jitter backwards; the
			// journal's within-cycle At is non-decreasing by contract.
			s.cur.canaryClosed = true
			s.cur.canaryAt = max(d.At, s.cur.at)
		}
	}
}

// Step performs at most one journaled state-machine transition: opening a
// cycle for a staged trigger, running the shadow retrain, ruling at the
// validation gate, promoting, or closing a completed canary window. It
// reports whether a transition ran.
func (s *Supervisor) Step() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	worked := false
	switch s.state {
	case StateIdle:
		if s.pending == nil || s.windowN < s.cfg.MinWindow {
			return false, nil
		}
		worked, err = true, s.beginCycle()
	case StateRetraining:
		if s.training {
			// Another Step released the lock mid-retrain; the cycle
			// advances when that call commits its outcome.
			return false, nil
		}
		worked, err = true, s.retrain()
	case StateGated:
		worked, err = true, s.gateStep()
	case StatePromoting:
		worked, err = true, s.promote()
	case StateCanary:
		if !s.cur.canaryClosed {
			return false, nil
		}
		// A failed close journals nothing and keeps the verdict staged;
		// it is not reported as work, so Drain stops and the next Step
		// retries.
		s.finishCanary(s.cur.canaryAt)
		worked = s.state != StateCanary
	}
	s.publishState()
	return worked, err
}

// beginCycle commits a staged trigger: the pseudo-label window is
// snapshotted to an artifact (write-ahead: the artifact lands before the
// record naming it), the cycle opens in the journal, and the state moves
// to retraining.
func (s *Supervisor) beginCycle() error {
	t := s.pending
	s.pending = nil
	cycle := s.cycle + 1
	dir := filepath.Join(s.cfg.Dir, CycleDirName(cycle))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("adapt: creating cycle dir: %w", err)
	}
	payload := windowPayload{
		Source:       t.Source,
		TriggerKind:  t.Kind,
		At:           t.At,
		Observations: s.snapshotWindow(),
	}
	hash, err := ckpt.HashConfig(payload)
	if err != nil {
		return err
	}
	if err := ckpt.WriteArtifact(filepath.Join(dir, WindowArtifactName),
		ckpt.Manifest{Kind: KindAdaptWindow}, payload); err != nil {
		return err
	}
	baseline := t.Window.AcceptRate
	if s.recentN > 0 {
		accepted := 0
		for i := 0; i < s.recentN; i++ {
			if s.recent[i] {
				accepted++
			}
		}
		baseline = float64(accepted) / float64(s.recentN)
	}
	rec := Record{
		Cycle:          cycle,
		Kind:           KindTrigger,
		At:             t.At,
		Source:         t.Source,
		TriggerKind:    t.Kind,
		Window:         WindowArtifactName,
		WindowHash:     hash,
		WindowLen:      len(payload.Observations),
		BaselineAccept: baseline,
	}
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	s.cycle = cycle
	s.cur = cycleCtx{
		cycle:          cycle,
		at:             t.At,
		source:         t.Source,
		triggerKind:    t.Kind,
		windowName:     WindowArtifactName,
		windowHash:     hash,
		windowLen:      len(payload.Observations),
		baselineAccept: baseline,
	}
	s.state = StateRetraining
	s.met.triggers.Inc()
	return nil
}

// snapshotWindow copies the pseudo-label ring, oldest first.
func (s *Supervisor) snapshotWindow() []core.Observation {
	out := make([]core.Observation, 0, s.windowN)
	start := s.windowNext - s.windowN
	if start < 0 {
		start += len(s.window)
	}
	for i := 0; i < s.windowN; i++ {
		out = append(out, s.window[(start+i)%len(s.window)])
	}
	return out
}

// loadWindow reads the open cycle's window artifact. The persisted copy —
// not the live ring — is the retrain and gate input, so an interrupted
// cycle resumes on byte-identical data.
func (s *Supervisor) loadWindow() (windowPayload, error) {
	var payload windowPayload
	path := filepath.Join(s.cfg.Dir, CycleDirName(s.cur.cycle), s.cur.windowName)
	if _, err := ckpt.ReadArtifact(path, KindAdaptWindow, &payload); err != nil {
		return payload, err
	}
	return payload, nil
}

// retrain runs the shadow retrain on the snapshotted window and commits
// the outcome: a candidate artifact plus a retrain-done record, or a
// terminal retrain-failed record with back-off.
//
// Training is the one slow transition, so the supervisor lock is released
// for the duration of the trainFn call — Decide and Trigger are on the
// serving hot path and must never wait out a retrain. The inputs are
// snapshotted under the lock first (the persisted window artifact, not the
// live ring, is the training input anyway), and the state machine cannot
// move while unlocked: the state stays StateRetraining and s.training
// makes concurrent Step calls no-ops.
func (s *Supervisor) retrain() error {
	payload, err := s.loadWindow()
	if err != nil {
		return err
	}
	train, validation := splitWindow(payload.Observations)
	cycle := s.cur.cycle
	windowHash := s.cur.windowHash
	dir := filepath.Join(s.cfg.Dir, CycleDirName(cycle))
	s.met.retrainsStarted.Inc()
	s.training = true
	trainFn := s.trainFn
	s.mu.Unlock()
	candidate, info, trainErr := trainFn(train, validation, dir, windowHash)
	s.mu.Lock()
	s.training = false
	if trainErr != nil {
		s.met.retrainsFailed.Inc()
		return s.closeCycle(Record{
			Kind:   KindRetrainFailed,
			At:     s.cur.at,
			Reason: trainErr.Error(),
		}, true)
	}
	if err := ckpt.WriteArtifact(filepath.Join(dir, CandidateArtifactName),
		ckpt.Manifest{Kind: ckpt.KindMeasure, ConfigHash: windowHash, Epoch: int(cycle)},
		candidate); err != nil {
		return err
	}
	rec := Record{
		Cycle:      cycle,
		Kind:       KindRetrainDone,
		At:         s.cur.at,
		Candidate:  CandidateArtifactName,
		Epochs:     info.epochs,
		StopReason: info.stopReason,
	}
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	s.cur.candidateName = CandidateArtifactName
	s.state = StateGated
	s.met.retrainsOK.Inc()
	return nil
}

// realTrain is the production shadow retrain: core.Build over the window
// slices through the existing anfis hybrid-learning path, checkpointed
// per epoch into the cycle directory and resumed from the newest usable
// checkpoint after a crash. The epoch budget is enforced twice — by the
// configured epoch count and by a Halt hook counting total epoch attempts
// including divergence retries — so a pathological retrain cannot run
// away.
func (s *Supervisor) realTrain(train, check []core.Observation, cycleDir, windowHash string) (*core.Measure, retrainInfo, error) {
	cp, err := ckpt.NewCheckpointer(ckpt.CheckpointConfig{
		Dir:        cycleDir,
		ConfigHash: windowHash,
		Metrics:    s.cfg.Metrics,
	})
	if err != nil {
		return nil, retrainInfo{}, err
	}
	build := s.cfg.Build
	build.Hybrid.Epochs = s.cfg.MaxEpochs
	attempts := 0
	budget := s.cfg.MaxEpochs + build.Hybrid.DivergenceRetries
	build.Hybrid.Halt = func(int) bool {
		attempts++
		return attempts > budget
	}
	build.Observer = cp
	if res, lsErr := ckpt.LatestState(cycleDir, windowHash, s.cfg.Metrics); lsErr == nil {
		build.Hybrid.Resume = res.State
	}
	m, err := core.Build(train, check, build)
	if err != nil {
		return nil, retrainInfo{}, err
	}
	info := retrainInfo{}
	if stop, ok := cp.LastStop(); ok {
		info.epochs = stop.Epochs
		info.stopReason = string(stop.Reason)
	}
	return m, info, nil
}

// gateStep rules on the open cycle's candidate: it reloads candidate and
// window from their artifacts (resume-exact), scores both models on the
// held-out validation slice, and commits gate-pass or quarantine.
func (s *Supervisor) gateStep() error {
	payload, err := s.loadWindow()
	if err != nil {
		return err
	}
	_, validation := splitWindow(payload.Observations)
	var candidate core.Measure
	candPath := filepath.Join(s.cfg.Dir, CycleDirName(s.cur.cycle), s.cur.candidateName)
	if _, err := ckpt.ReadArtifact(candPath, ckpt.KindMeasure, &candidate); err != nil {
		return err
	}
	incumbent := s.cfg.Handle.Load()
	if incumbent == nil {
		return s.closeCycle(Record{
			Kind:   KindAbandoned,
			At:     s.cur.at,
			Reason: "no incumbent model to gate against",
		}, false)
	}
	v := gate(&candidate, incumbent, validation, s.cfg.Threshold, s.cfg.MinAgreement, s.cfg.RMSESlack)
	if !v.pass && !s.cfg.DisableGate {
		s.met.quarantined.Inc()
		return s.closeCycle(Record{
			Kind:          KindQuarantine,
			At:            s.cur.at,
			Reason:        v.reason,
			CandidateRMSE: v.candidateRMSE,
			IncumbentRMSE: v.incumbentRMSE,
			Agreement:     v.agreement,
		}, true)
	}
	rec := Record{
		Cycle:         s.cur.cycle,
		Kind:          KindGatePass,
		At:            s.cur.at,
		CandidateRMSE: v.candidateRMSE,
		IncumbentRMSE: v.incumbentRMSE,
		Agreement:     v.agreement,
	}
	if s.cfg.DisableGate && !v.pass {
		rec.Reason = "gate disabled: " + v.reason
	}
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	s.state = StatePromoting
	return nil
}

// promote hot-swaps the candidate into serving: the candidate artifact's
// bytes are copied atomically over the watched model path and the watcher
// polled once. The last-good copy is left holding the incumbent (the
// watcher runs deferred), so rollback stays possible until the canary
// rules. Re-running after a crash is idempotent — the same bytes land and
// the watcher swaps the same model.
func (s *Supervisor) promote() error {
	// The rollback target must exist before the incumbent is overwritten;
	// promoting without one would make a later rollback a no-op, so a
	// failed persist aborts the transition (state stays StatePromoting and
	// the next Step retries).
	if _, err := os.Stat(s.cfg.Watcher.LastGoodPath()); err != nil {
		if mgErr := s.cfg.Watcher.MarkGood(); mgErr != nil {
			return fmt.Errorf("adapt: persisting rollback target before promotion: %w", mgErr)
		}
	}
	candPath := filepath.Join(s.cfg.Dir, CycleDirName(s.cur.cycle), s.cur.candidateName)
	data, err := os.ReadFile(candPath)
	if err != nil {
		return fmt.Errorf("adapt: reading candidate for promotion: %w", err)
	}
	if err := ckpt.AtomicWriteFile(s.cfg.ModelPath, data, 0o644); err != nil {
		return err
	}
	if _, err := s.cfg.Watcher.Poll(); err != nil {
		// The candidate passed the gate but the watcher refused it (decode
		// or smoke). Restore the incumbent and abandon the cycle.
		if lg, rbErr := os.ReadFile(s.cfg.Watcher.LastGoodPath()); rbErr == nil {
			_ = ckpt.AtomicWriteFile(s.cfg.ModelPath, lg, 0o644)
			_, _ = s.cfg.Watcher.Poll()
		}
		return s.closeCycle(Record{
			Kind:   KindAbandoned,
			At:     s.cur.at,
			Reason: "watcher rejected promoted candidate: " + err.Error(),
		}, false)
	}
	rec := Record{
		Cycle:          s.cur.cycle,
		Kind:           KindPromoted,
		At:             s.cur.at,
		BaselineAccept: s.cur.baselineAccept,
	}
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	s.cur.canarySeen = 0
	s.cur.canaryAccepted = 0
	s.state = StateCanary
	s.met.promotions.Inc()
	return nil
}

// finishCanary rules on a completed canary window at the closing
// decision's clamped virtual time: a regression beyond tolerance restores
// the last-good model (rollback), anything else marks the promotion good.
// Called with the supervisor lock held.
func (s *Supervisor) finishCanary(at float64) {
	canaryAccept := float64(s.cur.canaryAccepted) / float64(s.cur.canarySeen)
	if canaryAccept < s.cur.baselineAccept-s.cfg.CanaryTolerance {
		reason := "canary accept rate regressed beyond tolerance"
		if lg, err := os.ReadFile(s.cfg.Watcher.LastGoodPath()); err == nil {
			if err := ckpt.AtomicWriteFile(s.cfg.ModelPath, lg, 0o644); err == nil {
				_, _ = s.cfg.Watcher.Poll()
			} else {
				reason += "; restoring last-good failed: " + err.Error()
			}
		} else {
			reason += "; last-good unreadable: " + err.Error()
		}
		s.met.rollbacks.Inc()
		if err := s.closeCycle(Record{
			Kind:           KindRollback,
			At:             at,
			Reason:         reason,
			BaselineAccept: s.cur.baselineAccept,
			CanaryAccept:   canaryAccept,
		}, true); err != nil {
			// The rollback bytes are on disk but the journal still shows the
			// cycle in canary: surface the divergence (the verdict stays
			// staged, so the next Step retries the idempotent close).
			s.recordErr(fmt.Errorf("adapt: journaling rollback: %w", err))
		}
		return
	}
	if err := s.cfg.Watcher.MarkGood(); err != nil {
		// Not fatal — the previous incumbent stays the rollback target,
		// which is stale but valid — yet it must not pass silently.
		s.recordErr(fmt.Errorf("adapt: adopting canary survivor as last-good: %w", err))
	}
	s.met.canaryPasses.Inc()
	if err := s.closeCycle(Record{
		Kind:           KindCanaryPass,
		At:             at,
		BaselineAccept: s.cur.baselineAccept,
		CanaryAccept:   canaryAccept,
	}, false); err != nil {
		s.recordErr(fmt.Errorf("adapt: journaling canary pass: %w", err))
	}
}

// recordErr surfaces an error from a path with no caller to return it to:
// stderr, the error counter, and Status.LastError. Called with the lock
// held.
func (s *Supervisor) recordErr(err error) {
	s.lastErr = err.Error()
	s.met.errors.Inc()
	fmt.Fprintf(os.Stderr, "%v\n", err)
}

// closeCycle commits a terminal record with the cool-down for the outcome:
// bad outcomes (failed) grow the exponential back-off, good ones reset it
// to the refractory base.
func (s *Supervisor) closeCycle(rec Record, failed bool) error {
	// The streak commits only with the record: a failed append leaves it
	// untouched so a retried close doesn't double-count the back-off.
	streak := 0
	if failed {
		streak = s.failStreak + 1
	}
	cooldown := s.cfg.CooldownBase
	for i := 1; i < streak && cooldown < s.cfg.CooldownMax; i++ {
		cooldown *= 2
	}
	if cooldown > s.cfg.CooldownMax {
		cooldown = s.cfg.CooldownMax
	}
	rec.Cycle = s.cur.cycle
	rec.CooldownUntil = rec.At + cooldown
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	s.failStreak = streak
	s.cooldownUntil = rec.CooldownUntil
	s.state = StateIdle
	return nil
}

// publishState refreshes the state gauges. Called with the lock held.
func (s *Supervisor) publishState() {
	s.met.state.Set(float64(s.state))
	s.met.cooldownUntil.Set(s.cooldownUntil)
	s.met.cycle.Set(float64(s.cycle))
}

// Drain runs Step until no transition remains runnable (idle with nothing
// staged, waiting on the window floor, or watching an open canary). It is the
// synchronous driver virtual-time harnesses use between batches.
func (s *Supervisor) Drain() error {
	for {
		worked, err := s.Step()
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
}

// Journal exposes the committed records for inspection (tests, status).
func (s *Supervisor) Journal() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.jr.Records()...)
}

// State returns the current state.
func (s *Supervisor) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Close releases the journal handle.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jr.Close()
}
