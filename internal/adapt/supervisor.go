package adapt

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// subdirectory per cycle (window snapshot and candidate).
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
	// Observer and Hybrid.Epochs are managed by the supervisor.
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

// cycleCtx is the open cycle's in-memory context, rebuilt from its trigger
// record by apply.
type cycleCtx struct {
	cycle          int64
	at             float64
	windowHash     string
	baselineAccept float64
	canarySeen     int
	canaryAccepted int
	// canaryClosed is set by the decision that completes the canary
	// window; the counts are then frozen and canaryAt holds the verdict's
	// clamped time until Step journals it.
	canaryClosed bool
	canaryAt     float64
}

// step is one planned transition: the state it leaves and copies of
// everything its I/O reads, taken under the lock so that act can run
// without it.
type step struct {
	state State
	cur   cycleCtx
	// trigger and window are the staged trigger and a deep copy of the
	// pseudo-label ring, set for a cycle open.
	trigger *quality.Trigger
	window  []core.Observation
}

// Supervisor is the adaptation state machine. Trigger and Decide are the
// fast inputs (safe to call from scoring and engine hooks): they only
// update memory. Step performs at most one journaled transition per call,
// and every journaled transition happens in Step. Under the supervisor
// lock there is only memory work and one journal append, so no method
// waits on the artifact I/O, training, gate or watcher of a transition.
// All methods are safe for concurrent use; determinism is the caller's
// contract — feed decisions and triggers in a deterministic order and call
// Step at deterministic points, and the journal, artifacts, and promoted
// models replay bit-identically.
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
	// busy is true while a Step runs its transition's I/O with the lock
	// released; it makes concurrent Step calls no-ops, so at most one
	// transition is in flight.
	busy bool
	// kinds counts the committed records of each kind and last is the
	// newest one: apply keeps them, so Status reads no history.
	kinds map[string]int
	last  Record
	// lastErr is the newest swallowed internal error (journal append or
	// last-good persistence failing on a path with no caller to return
	// to), exposed in Status so journal/disk divergence is visible.
	lastErr string

	// trainFn is the shadow-retrain implementation; tests stub it to avoid
	// real training in flap-storm and transition tests.
	trainFn func(train, check []core.Observation) (*core.Measure, retrainInfo, error)
}

// New opens (or resumes) a supervisor over Dir, recovering the state
// machine from the journal: every committed record is applied in order, so
// the open cycle's context is reconstructed, and the pending transition
// re-runs on its persisted inputs at the next Step.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Dir == "" || cfg.ModelPath == "":
		return nil, fmt.Errorf("adapt: Dir and ModelPath must be set")
	case cfg.Watcher == nil || cfg.Handle == nil:
		return nil, fmt.Errorf("adapt: Watcher and Handle must be set")
	case cfg.WindowSize < 0 || cfg.CanaryWindow < 0:
		return nil, fmt.Errorf("adapt: WindowSize %d and CanaryWindow %d must not be negative", cfg.WindowSize, cfg.CanaryWindow)
	case cfg.MinWindow < validationStride || cfg.MinWindow > cfg.WindowSize:
		// Below the stride the gate has no held-out decision; above the
		// window size no cycle ever opens.
		return nil, fmt.Errorf("adapt: MinWindow %d must lie in [%d, WindowSize %d]", cfg.MinWindow, validationStride, cfg.WindowSize)
	}
	jr, records, err := OpenJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:    cfg,
		met:    newAdaptMetrics(cfg.Metrics),
		jr:     jr,
		window: make([]core.Observation, cfg.WindowSize),
		recent: make([]bool, cfg.CanaryWindow),
		kinds:  make(map[string]int),
	}
	s.trainFn = s.realTrain
	for _, r := range records {
		s.apply(r)
	}
	s.publishState()
	return s, nil
}

// apply moves the state machine by one committed record. It is the only
// code that writes state, cycle, cur, failStreak and cooldownUntil: New
// runs it over the journal and commit over each live record, so a resumed
// supervisor holds what the live one held at the same record.
func (s *Supervisor) apply(r Record) {
	s.kinds[r.Kind]++
	s.last = r
	s.cycle = r.Cycle
	switch r.Kind {
	case KindTrigger:
		// The canary counts start at zero here and move only in the
		// canary state, so they are zero at every record boundary.
		s.cur = cycleCtx{cycle: r.Cycle, at: r.At, windowHash: r.WindowHash, baselineAccept: r.BaselineAccept}
		s.state = StateRetraining
	case KindRetrainDone:
		s.state = StateGated
	case KindGatePass:
		s.state = StatePromoting
	case KindPromoted:
		s.state = StateCanary
	default: // a terminal record
		s.failStreak = s.streakAfter(r.Kind)
		s.cooldownUntil = r.CooldownUntil
		s.state = StateIdle
	}
}

// streakAfter is the fail streak once a terminal record of kind commits:
// a failed retrain, a quarantine and a rollback grow the back-off; a
// canary pass and an abandoned cycle reset it.
func (s *Supervisor) streakAfter(kind string) int {
	switch kind {
	case KindRetrainFailed, KindQuarantine, KindRollback:
		return s.failStreak + 1
	}
	return 0
}

// Trigger offers a drift trigger to the supervisor. It is fast and
// non-blocking-safe for the quality engine's OnTrigger hook — the trigger
// is only staged here; the journaled cycle open happens at the next Step.
// It reports whether the trigger was staged (false: ignored by cool-down,
// an open cycle, or an already-staged trigger, which stays staged while
// its cycle opens).
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
//
// Every transition runs in three phases. Plan, under the lock: pick the
// transition and copy its inputs. Act, with the lock released: the
// artifact reads and writes, the training, the gate's evaluations and the
// watcher calls, while the busy flag makes concurrent Steps no-ops.
// Commit, under the lock: append the transition's record and apply it.
// The fsynced append stays under the lock on purpose: it is the commit
// point, so Status, Journal and Close never see disk and memory disagree.
func (s *Supervisor) Step() (bool, error) {
	s.mu.Lock()
	p, ok := s.plan()
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	s.busy = true
	s.mu.Unlock()
	rec, err := s.act(p)

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishState()
	s.busy = false
	if p.trigger != nil {
		// The staged trigger is spent whether or not its cycle opened.
		s.pending = nil
	}
	if p.state != StateCanary {
		if err != nil {
			return true, err
		}
		return true, s.commit(rec)
	}
	// The canary close has no caller to return to. A failed last-good
	// adoption does not stop the pass; a failed append journals nothing and
	// keeps the verdict staged, and is not reported as work, so Drain stops
	// and the next Step retries the idempotent close.
	if err != nil {
		s.recordErr(err)
	}
	if err := s.commit(rec); err != nil {
		s.recordErr(fmt.Errorf("adapt: journaling %s: %w", rec.Kind, err))
		return false, nil
	}
	return true, nil
}

// plan picks the runnable transition, if any, and copies what act reads.
// A cycle open takes the staged trigger, the accept-rate baseline over
// the recent decisions and a deep copy of the window. Called with the lock
// held.
func (s *Supervisor) plan() (step, bool) {
	p := step{state: s.state, cur: s.cur}
	switch {
	case s.busy:
		return p, false
	case s.state == StateIdle:
		t := s.pending
		if t == nil || s.windowN < s.cfg.MinWindow {
			return p, false
		}
		baseline := t.Window.AcceptRate
		if s.recentN > 0 {
			accepted := 0
			for _, a := range s.recent[:s.recentN] {
				if a {
					accepted++
				}
			}
			baseline = float64(accepted) / float64(s.recentN)
		}
		p.trigger, p.window = t, s.snapshotWindow()
		p.cur = cycleCtx{cycle: s.cycle + 1, at: t.At, baselineAccept: baseline}
	case s.state == StateCanary:
		return p, s.cur.canaryClosed
	}
	return p, true
}

// snapshotWindow copies the pseudo-label ring, oldest first. The copy owns
// its cue slices, because Decide reuses the ring's.
func (s *Supervisor) snapshotWindow() []core.Observation {
	out := make([]core.Observation, s.windowN)
	start := s.windowNext - s.windowN + len(s.window)
	for i := range out {
		out[i] = s.window[(start+i)%len(s.window)]
		out[i].Cues = slices.Clone(out[i].Cues)
	}
	return out
}

// act runs a planned transition with the lock released and returns the
// record that commits it. An error leaves the state where it was.
func (s *Supervisor) act(p step) (Record, error) {
	var rec Record
	var err error
	switch p.state {
	case StateIdle:
		rec, err = s.open(p)
	case StateRetraining:
		rec, err = s.retrain(p.cur)
	case StateGated:
		rec, err = s.gateStep(p.cur)
	case StatePromoting:
		rec, err = s.promote(p.cur)
	case StateCanary:
		rec, err = s.closeCanary(p.cur)
	}
	rec.Cycle = p.cur.cycle
	return rec, err
}

// commit journals rec and applies it. A terminal record gets the cool-down
// of its outcome here; bad outcomes double it per consecutive failure, up
// to CooldownMax. The record's counter moves only once its line is on
// disk, so a retried commit counts once. Called with the lock held.
func (s *Supervisor) commit(rec Record) error {
	if terminalKinds[rec.Kind] {
		cooldown := s.cfg.CooldownBase
		for i := 1; i < s.streakAfter(rec.Kind) && cooldown < s.cfg.CooldownMax; i++ {
			cooldown *= 2
		}
		rec.CooldownUntil = rec.At + min(cooldown, s.cfg.CooldownMax)
	}
	if err := s.jr.Append(rec); err != nil {
		return err
	}
	rec.Seq = s.jr.seq
	s.apply(rec)
	s.met.committed[rec.Kind].Inc()
	return nil
}

// open snapshots a staged trigger's window to the new cycle's artifact,
// which lands before the trigger record that names it (write-ahead).
func (s *Supervisor) open(p step) (Record, error) {
	t := p.trigger
	dir := filepath.Join(s.cfg.Dir, CycleDirName(p.cur.cycle))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Record{}, fmt.Errorf("adapt: creating cycle dir: %w", err)
	}
	payload := windowPayload{Source: t.Source, TriggerKind: t.Kind, At: t.At, Observations: p.window}
	hash, err := ckpt.HashConfig(payload)
	if err != nil {
		return Record{}, err
	}
	if err := ckpt.WriteArtifact(filepath.Join(dir, WindowArtifactName),
		ckpt.Manifest{Kind: KindAdaptWindow}, payload); err != nil {
		return Record{}, err
	}
	return Record{
		Kind:           KindTrigger,
		At:             t.At,
		Source:         t.Source,
		TriggerKind:    t.Kind,
		Window:         WindowArtifactName,
		WindowHash:     hash,
		WindowLen:      len(p.window),
		BaselineAccept: p.cur.baselineAccept,
	}, nil
}

// loadWindow reads a cycle's window artifact. The persisted copy — not the
// live ring — is the retrain and gate input, so an interrupted cycle
// resumes on byte-identical data.
func (s *Supervisor) loadWindow(cycle int64) (windowPayload, error) {
	var payload windowPayload
	_, err := ckpt.ReadArtifact(filepath.Join(s.cfg.Dir, CycleDirName(cycle), WindowArtifactName), KindAdaptWindow, &payload)
	return payload, err
}

// retrain runs the shadow retrain on the snapshotted window and writes the
// candidate artifact the retrain-done record names; a training error ends
// the cycle with retrain-failed.
func (s *Supervisor) retrain(c cycleCtx) (Record, error) {
	payload, err := s.loadWindow(c.cycle)
	if err != nil {
		return Record{}, err
	}
	train, validation := splitWindow(payload.Observations)
	s.met.retrainsStarted.Inc()
	candidate, info, err := s.trainFn(train, validation)
	if err != nil {
		return Record{Kind: KindRetrainFailed, At: c.at, Reason: err.Error()}, nil
	}
	if err := ckpt.WriteArtifact(filepath.Join(s.cfg.Dir, CycleDirName(c.cycle), CandidateArtifactName),
		ckpt.Manifest{Kind: ckpt.KindMeasure, ConfigHash: c.windowHash, Epoch: int(c.cycle)},
		candidate); err != nil {
		return Record{}, err
	}
	return Record{
		Kind:       KindRetrainDone,
		At:         c.at,
		Candidate:  CandidateArtifactName,
		Epochs:     info.epochs,
		StopReason: info.stopReason,
	}, nil
}

// realTrain is the production shadow retrain: core.Build over the window
// slices through the existing anfis hybrid-learning path, bounded by
// MaxEpochs. It writes no files: a retrain interrupted by a crash re-runs
// from the cycle's window artifact, and training is bit-identical at every
// worker count, so the re-run writes the same candidate.
func (s *Supervisor) realTrain(train, check []core.Observation) (*core.Measure, retrainInfo, error) {
	build := s.cfg.Build
	build.Hybrid.Epochs = s.cfg.MaxEpochs
	var info retrainInfo
	build.Observer = core.TrainObserverFuncs{OnStop: func(ev core.StopEvent) {
		info = retrainInfo{epochs: ev.Epochs, stopReason: string(ev.Reason)}
	}}
	m, err := core.Build(train, check, build)
	return m, info, err
}

// gateStep rules on the cycle's candidate: it reloads candidate and window
// from their artifacts (resume-exact), scores both models on the held-out
// validation slice, and returns gate-pass or quarantine.
func (s *Supervisor) gateStep(c cycleCtx) (Record, error) {
	payload, err := s.loadWindow(c.cycle)
	if err != nil {
		return Record{}, err
	}
	_, validation := splitWindow(payload.Observations)
	var candidate core.Measure
	candPath := filepath.Join(s.cfg.Dir, CycleDirName(c.cycle), CandidateArtifactName)
	if _, err := ckpt.ReadArtifact(candPath, ckpt.KindMeasure, &candidate); err != nil {
		return Record{}, err
	}
	incumbent := s.cfg.Handle.Load()
	if incumbent == nil {
		return Record{Kind: KindAbandoned, At: c.at, Reason: "no incumbent model to gate against"}, nil
	}
	v := gate(&candidate, incumbent, validation, s.cfg.Threshold, s.cfg.MinAgreement, s.cfg.RMSESlack)
	rec := Record{
		Kind:          KindGatePass,
		At:            c.at,
		CandidateRMSE: v.candidateRMSE,
		IncumbentRMSE: v.incumbentRMSE,
		Agreement:     v.agreement,
	}
	switch {
	case v.pass:
	case s.cfg.DisableGate:
		rec.Reason = "gate disabled: " + v.reason
	default:
		rec.Kind, rec.Reason = KindQuarantine, v.reason
	}
	return rec, nil
}

// promote hot-swaps the candidate into serving: the candidate artifact's
// bytes are copied atomically over the watched model path and the watcher
// polled once. The last-good copy is left holding the incumbent (the
// watcher runs deferred), so rollback stays possible until the canary
// rules. Re-running after a crash is idempotent — the same bytes land and
// the watcher swaps the same model.
func (s *Supervisor) promote(c cycleCtx) (Record, error) {
	// The rollback target must exist before the incumbent is overwritten;
	// promoting without one would make a later rollback a no-op, so a
	// failed persist aborts the transition (state stays StatePromoting and
	// the next Step retries).
	if _, err := os.Stat(s.cfg.Watcher.LastGoodPath()); err != nil {
		if mgErr := s.cfg.Watcher.MarkGood(); mgErr != nil {
			return Record{}, fmt.Errorf("adapt: persisting rollback target before promotion: %w", mgErr)
		}
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, CycleDirName(c.cycle), CandidateArtifactName))
	if err != nil {
		return Record{}, fmt.Errorf("adapt: reading candidate for promotion: %w", err)
	}
	if err := ckpt.AtomicWriteFile(s.cfg.ModelPath, data, 0o644); err != nil {
		return Record{}, err
	}
	if _, err := s.cfg.Watcher.Poll(); err != nil {
		// The candidate passed the gate but the watcher refused it (decode
		// or smoke). Restore the incumbent and abandon the cycle.
		_ = s.restoreLastGood()
		return Record{Kind: KindAbandoned, At: c.at, Reason: "watcher rejected promoted candidate: " + err.Error()}, nil
	}
	return Record{Kind: KindPromoted, At: c.at, BaselineAccept: c.baselineAccept}, nil
}

// closeCanary rules on a completed canary window at the closing decision's
// clamped virtual time: a regression beyond tolerance restores the
// last-good model (rollback), anything else adopts the promoted model as
// last-good (canary pass). A failed adoption is returned with the pass
// record: the previous incumbent stays the rollback target, stale but
// valid.
func (s *Supervisor) closeCanary(c cycleCtx) (Record, error) {
	rec := Record{
		Kind:           KindCanaryPass,
		At:             c.canaryAt,
		BaselineAccept: c.baselineAccept,
		CanaryAccept:   float64(c.canaryAccepted) / float64(c.canarySeen),
	}
	if rec.CanaryAccept < c.baselineAccept-s.cfg.CanaryTolerance {
		rec.Kind, rec.Reason = KindRollback, "canary accept rate regressed beyond tolerance"
		if err := s.restoreLastGood(); err != nil {
			rec.Reason += "; " + err.Error()
		}
		return rec, nil
	}
	if err := s.cfg.Watcher.MarkGood(); err != nil {
		return rec, fmt.Errorf("adapt: adopting canary survivor as last-good: %w", err)
	}
	return rec, nil
}

// restoreLastGood copies the last-good model over the served one and polls
// the watcher, so serving returns to the incumbent.
func (s *Supervisor) restoreLastGood() error {
	lg, err := os.ReadFile(s.cfg.Watcher.LastGoodPath())
	if err != nil {
		return fmt.Errorf("last-good unreadable: %w", err)
	}
	if err := ckpt.AtomicWriteFile(s.cfg.ModelPath, lg, 0o644); err != nil {
		return fmt.Errorf("restoring last-good failed: %w", err)
	}
	_, _ = s.cfg.Watcher.Poll()
	return nil
}

// recordErr surfaces an error from a path with no caller to return it to:
// stderr, the error counter, and Status.LastError. Called with the lock
// held.
func (s *Supervisor) recordErr(err error) {
	s.lastErr = err.Error()
	s.met.errors.Inc()
	fmt.Fprintf(os.Stderr, "%v\n", err)
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

// Journal reads the committed records back from the journal file, oldest
// first. Only the committed count is read under the lock, and exactly that
// many records are returned, so none whose apply has not run shows. A read
// error is recorded in Status.LastError and returns nil.
//
//lint:ignore unused the supervisor tests read the committed history through it
func (s *Supervisor) Journal() []Record {
	s.mu.Lock()
	n := s.jr.seq
	s.mu.Unlock()
	records, _, _, err := readJournal(s.jr.path)
	if err == nil && int64(len(records)) < n {
		err = fmt.Errorf("%w: %d records read, %d committed", ErrJournalCorrupt, len(records), n)
	}
	if err != nil {
		s.mu.Lock()
		s.recordErr(err)
		s.mu.Unlock()
		return nil
	}
	return records[:n]
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
