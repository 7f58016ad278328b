package adapt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/fuzzy"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// biasMeasure builds a minimal valid quality FIS over (cue, class): one
// wide rule whose consequent is the constant bias, so every score is bias.
func biasMeasure(t *testing.T, bias float64) *core.Measure {
	t.Helper()
	sys, err := fuzzy.NewTSK(2, []fuzzy.Rule{{
		Antecedent: []fuzzy.Gaussian{{Mu: 0.5, Sigma: 10}, {Mu: 0, Sigma: 10}},
		Coeffs:     []float64{0, 0, bias},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return core.MeasureFromSystem(sys)
}

// harness wires a supervisor over a temp dir with a bias incumbent and a
// stubbed retrain, mirroring how cqmserve assembles the lifecycle.
type harness struct {
	dir       string
	modelPath string
	handle    *ckpt.Handle
	watcher   *ckpt.ModelWatcher
	sup       *Supervisor
}

// newHarness opens (or, called again on the same dir, resumes) the
// supervisor. The incumbent artifact is only written when the model file
// does not exist yet — a resume must serve whatever model the crashed
// process had promoted.
func newHarness(t *testing.T, dir string, cfg Config, incumbent *core.Measure,
	trainFn func(train, check []core.Observation, cycleDir, windowHash string) (*core.Measure, retrainInfo, error)) *harness {
	t.Helper()
	h := &harness{dir: dir, modelPath: filepath.Join(dir, "model.json")}
	if _, err := os.Stat(h.modelPath); err != nil {
		if err := ckpt.WriteArtifact(h.modelPath, ckpt.Manifest{Kind: ckpt.KindMeasure}, incumbent); err != nil {
			t.Fatal(err)
		}
	}
	h.handle = ckpt.NewHandle(nil)
	var err error
	h.watcher, err = ckpt.NewModelWatcher(ckpt.WatchConfig{Path: h.modelPath, DeferLastGood: true}, h.handle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.watcher.Poll(); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = filepath.Join(dir, "state")
	cfg.ModelPath = h.modelPath
	cfg.Watcher = h.watcher
	cfg.Handle = h.handle
	h.sup, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trainFn != nil {
		h.sup.trainFn = trainFn
	}
	return h
}

// smallConfig is the base supervisor tuning of the unit tests.
func smallConfig() Config {
	return Config{
		Threshold:    0.5,
		WindowSize:   16,
		MinWindow:    8,
		CanaryWindow: 4,
		CooldownBase: 10,
		CooldownMax:  40,
	}
}

// stubTrain returns a fixed prebuilt candidate — deterministic bytes, no
// real training.
func stubTrain(candidate *core.Measure) func([]core.Observation, []core.Observation, string, string) (*core.Measure, retrainInfo, error) {
	return func(_, _ []core.Observation, _, _ string) (*core.Measure, retrainInfo, error) {
		return candidate, retrainInfo{epochs: 3, stopReason: "stub"}, nil
	}
}

// mkDecision is one synthetic accepted/rejected decision at virtual time
// at.
func mkDecision(at, q, threshold float64) Decision {
	return Decision{
		At: at, Cues: []float64{0.5}, Class: sensor.Context(0),
		HasQ: true, Accepted: q > threshold,
	}
}

func mustCRC(t *testing.T, path string) string {
	t.Helper()
	crc, err := FileCRC(path)
	if err != nil {
		t.Fatal(err)
	}
	return crc
}

// driveCycle feeds the fixed 20-decision schedule that produces exactly
// one full heal cycle (trigger at decision 10, canary closing at decision
// 14), starting at decision index start. When stopAfter >= 0 the drive
// "crashes" — returns the next index without running further transitions —
// as soon as the journal holds stopAfter records. Returns the index after
// the last fed decision and whether the schedule completed.
func driveCycle(t *testing.T, sup *Supervisor, start, stopAfter int) (int, bool) {
	t.Helper()
	crashed := func() bool {
		return stopAfter >= 0 && len(sup.Journal()) >= stopAfter
	}
	for i := start; i < 20; i++ {
		if i == 10 {
			sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: float64(i)})
		}
		sup.Decide(mkDecision(float64(i), 0.9, 0.5))
		if crashed() {
			return i + 1, false
		}
		for {
			worked, err := sup.Step()
			if err != nil {
				t.Fatalf("Step at decision %d: %v", i, err)
			}
			if !worked {
				break
			}
			if crashed() {
				return i + 1, false
			}
		}
	}
	return 20, true
}

// TestKillResumeEveryBoundary is the crash-safety property test: the full
// heal cycle is replayed with a simulated crash at every journal record
// boundary, and each resumed run must finish with byte-identical journal,
// model, and last-good artifacts to the uninterrupted run.
func TestKillResumeEveryBoundary(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	candidate := biasMeasure(t, 0.8)

	// Uninterrupted reference run.
	refDir := t.TempDir()
	ref := newHarness(t, refDir, smallConfig(), incumbent, stubTrain(candidate))
	if _, done := driveCycle(t, ref.sup, 0, -1); !done {
		t.Fatal("reference run did not complete")
	}
	refRecords := ref.sup.Journal()
	if err := VerifyRecords(refRecords); err != nil {
		t.Fatalf("reference journal invalid: %v", err)
	}
	wantKinds := []string{KindTrigger, KindRetrainDone, KindGatePass, KindPromoted, KindCanaryPass}
	if len(refRecords) != len(wantKinds) {
		t.Fatalf("reference journal has %d records, want %d", len(refRecords), len(wantKinds))
	}
	for i, k := range wantKinds {
		if refRecords[i].Kind != k {
			t.Fatalf("reference record %d kind %q, want %q", i, refRecords[i].Kind, k)
		}
	}
	if err := ref.sup.Close(); err != nil {
		t.Fatal(err)
	}
	refJournal := mustCRC(t, filepath.Join(refDir, "state", JournalName))
	refModel := mustCRC(t, ref.modelPath)
	refLastGood := mustCRC(t, ref.watcher.LastGoodPath())

	for stopAfter := 1; stopAfter <= len(wantKinds)-1; stopAfter++ {
		dir := t.TempDir()
		// Run until the crash point. The dying supervisor is abandoned
		// without Close, like a killed process.
		crashing := newHarness(t, dir, smallConfig(), incumbent, stubTrain(candidate))
		next, done := driveCycle(t, crashing.sup, 0, stopAfter)
		if done {
			t.Fatalf("stopAfter=%d: run completed without crashing", stopAfter)
		}
		if got := len(crashing.sup.Journal()); got != stopAfter {
			t.Fatalf("stopAfter=%d: crashed with %d records", stopAfter, got)
		}

		// Resume: fresh process state over the same directory. Pending
		// transitions drain first (the uninterrupted run also finishes
		// the step loop before the next decision), then the remaining
		// schedule plays out.
		resumed := newHarness(t, dir, smallConfig(), incumbent, stubTrain(candidate))
		if err := resumed.sup.Drain(); err != nil {
			t.Fatalf("stopAfter=%d: resume drain: %v", stopAfter, err)
		}
		if _, done := driveCycle(t, resumed.sup, next, -1); !done {
			t.Fatalf("stopAfter=%d: resumed run did not complete", stopAfter)
		}
		if err := resumed.sup.Close(); err != nil {
			t.Fatal(err)
		}

		if got := mustCRC(t, filepath.Join(dir, "state", JournalName)); got != refJournal {
			t.Errorf("stopAfter=%d: journal CRC %s, want %s\nresumed records: %+v",
				stopAfter, got, refJournal, resumed.sup.Journal())
		}
		if got := mustCRC(t, resumed.modelPath); got != refModel {
			t.Errorf("stopAfter=%d: model CRC %s, want %s", stopAfter, got, refModel)
		}
		if got := mustCRC(t, resumed.watcher.LastGoodPath()); got != refLastGood {
			t.Errorf("stopAfter=%d: last-good CRC %s, want %s", stopAfter, got, refLastGood)
		}
		if _, err := VerifyJournal(filepath.Join(dir, "state")); err != nil {
			t.Errorf("stopAfter=%d: VerifyJournal: %v", stopAfter, err)
		}
	}
}

// TestFlapStormCooldown floods the supervisor with a trigger per decision
// while every retrain fails, and asserts the exponential cool-down bounds
// the cycle count and follows the doubling-capped schedule.
func TestFlapStormCooldown(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	boom := errors.New("synthetic retrain crash")
	h := newHarness(t, t.TempDir(), smallConfig(), incumbent,
		func(_, _ []core.Observation, _, _ string) (*core.Measure, retrainInfo, error) {
			return nil, retrainInfo{}, boom
		})
	const storm = 500
	for i := 0; i < storm; i++ {
		at := float64(i)
		h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: at})
		h.sup.Decide(mkDecision(at, 0.9, 0.5))
		if err := h.sup.Drain(); err != nil {
			t.Fatalf("Drain at %d: %v", i, err)
		}
	}
	records := h.sup.Journal()
	if err := VerifyRecords(records); err != nil {
		t.Fatalf("journal invalid after storm: %v", err)
	}

	var triggers []Record
	var failures []Record
	for _, r := range records {
		switch r.Kind {
		case KindTrigger:
			triggers = append(triggers, r)
		case KindRetrainFailed:
			failures = append(failures, r)
		default:
			t.Fatalf("unexpected record kind %q in storm journal", r.Kind)
		}
	}
	if len(triggers) != len(failures) {
		t.Fatalf("%d triggers but %d failures", len(triggers), len(failures))
	}
	// 500 virtual seconds of continuous triggering against the 10/20/40/40…
	// schedule admits at most ~14 cycles; anything near the storm size
	// means the cool-down is not holding.
	if len(triggers) == 0 || len(triggers) > 16 {
		t.Fatalf("storm opened %d cycles, want 1..16", len(triggers))
	}
	cfg := smallConfig()
	for i, f := range failures {
		cooldown := f.CooldownUntil - f.At
		want := cfg.CooldownBase
		for k := 1; k <= i && want < cfg.CooldownMax; k++ {
			want *= 2
		}
		if want > cfg.CooldownMax {
			want = cfg.CooldownMax
		}
		if cooldown != want {
			t.Errorf("failure %d: cooldown %.0f, want %.0f", i, cooldown, want)
		}
		if i+1 < len(triggers) && triggers[i+1].At < f.CooldownUntil {
			t.Errorf("cycle %d opened at %.0f inside cooldown (until %.0f)", i+1, triggers[i+1].At, f.CooldownUntil)
		}
	}
}

// TestHotPathNonBlockingDuringRetrain pins the locking contract behind
// "Trigger and Decide are the fast inputs": while the shadow retrain runs,
// the supervisor mutex is released, so Decide, Trigger, and Status return
// immediately and a concurrent Step is a no-op rather than a second
// retrain.
func TestHotPathNonBlockingDuringRetrain(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	candidate := biasMeasure(t, 0.8)
	started := make(chan struct{})
	release := make(chan struct{})
	h := newHarness(t, t.TempDir(), smallConfig(), incumbent,
		func(_, _ []core.Observation, _, _ string) (*core.Measure, retrainInfo, error) {
			close(started)
			<-release
			return candidate, retrainInfo{epochs: 3, stopReason: "stub"}, nil
		})
	for i := 0; i < 10; i++ {
		h.sup.Decide(mkDecision(float64(i), 0.9, 0.5))
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 10})
	if _, err := h.sup.Step(); err != nil { // opens the cycle
		t.Fatal(err)
	}
	stepDone := make(chan error, 1)
	go func() {
		_, err := h.sup.Step() // runs the blocked retrain
		stepDone <- err
	}()
	<-started

	hotDone := make(chan struct{})
	go func() {
		defer close(hotDone)
		h.sup.Decide(mkDecision(11, 0.9, 0.5))
		h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 11})
		_ = h.sup.Status()
		if st := h.sup.State(); st != StateRetraining {
			t.Errorf("state %v during retrain, want retraining", st)
		}
		worked, err := h.sup.Step()
		if err != nil {
			t.Errorf("concurrent Step during retrain: %v", err)
		}
		if worked {
			t.Error("concurrent Step reported a transition while a retrain was in flight")
		}
	}()
	select {
	case <-hotDone:
	case <-time.After(10 * time.Second):
		t.Fatal("hot-path calls blocked behind the in-flight retrain")
	}
	close(release)
	if err := <-stepDone; err != nil {
		t.Fatal(err)
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := h.sup.State(); st != StateCanary {
		t.Fatalf("state %v after drained cycle, want canary", st)
	}
	wantKinds := []string{KindTrigger, KindRetrainDone, KindGatePass, KindPromoted}
	recs := h.sup.Journal()
	if len(recs) != len(wantKinds) {
		t.Fatalf("journal has %d records, want %d: %+v", len(recs), len(wantKinds), recs)
	}
	for i, k := range wantKinds {
		if recs[i].Kind != k {
			t.Errorf("record %d kind %q, want %q", i, recs[i].Kind, k)
		}
	}
}

// TestTriggerIgnoredStates verifies Trigger's admission rules: staged only
// when idle, nothing already staged, and outside cool-down.
func TestTriggerIgnoredStates(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	h := newHarness(t, t.TempDir(), smallConfig(), incumbent, stubTrain(biasMeasure(t, 0.8)))
	tr := quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 1}
	if !h.sup.Trigger(tr) {
		t.Fatal("first trigger not staged")
	}
	if h.sup.Trigger(tr) {
		t.Fatal("second trigger staged while one pending")
	}
	// Fill the window and open the cycle; mid-cycle triggers are ignored.
	for i := 0; i < 10; i++ {
		h.sup.Decide(mkDecision(float64(i+2), 0.9, 0.5))
	}
	if _, err := h.sup.Step(); err != nil {
		t.Fatal(err)
	}
	if h.sup.State() != StateRetraining {
		t.Fatalf("state %v after cycle open", h.sup.State())
	}
	if h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 12}) {
		t.Fatal("trigger staged while cycle open")
	}
}

// TestCanaryPassSurfacesLastGoodError forces the canary-pass MarkGood to
// fail (the watched artifact vanishes mid-canary) and asserts the cycle
// still closes as a pass while the failure is surfaced through
// Status.LastError instead of vanishing.
func TestCanaryPassSurfacesLastGoodError(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	h := newHarness(t, t.TempDir(), smallConfig(), incumbent, stubTrain(biasMeasure(t, 0.8)))
	for i := 0; i < 10; i++ {
		h.sup.Decide(mkDecision(float64(i), 0.9, 0.5))
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 10})
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if h.sup.State() != StateCanary {
		t.Fatalf("state %v after drain, want canary", h.sup.State())
	}
	if err := os.Remove(h.modelPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.sup.Decide(mkDecision(float64(11+i), 0.9, 0.5))
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	if len(recs) == 0 || recs[len(recs)-1].Kind != KindCanaryPass {
		t.Fatalf("journal %+v, want terminal canary-pass", recs)
	}
	st := h.sup.Status()
	if st.LastError == "" {
		t.Fatal("Status.LastError empty after failed last-good adoption")
	}
	if h.sup.State() != StateIdle {
		t.Fatalf("state %v after canary pass, want idle", h.sup.State())
	}
}

func TestStateString(t *testing.T) {
	for want, s := range map[string]State{
		"idle": StateIdle, "retraining": StateRetraining, "gated": StateGated,
		"promoting": StatePromoting, "canary": StateCanary,
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
	if got := State(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown state String() = %q, want the numeric fallback", got)
	}
}

// TestLabelOverride verifies the Label channel poisons the stored window
// without touching the accept baseline.
func TestLabelOverride(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	h := newHarness(t, t.TempDir(), smallConfig(), incumbent, stubTrain(biasMeasure(t, 0.8)))
	flip := false
	for i := 0; i < 8; i++ {
		d := mkDecision(float64(i), 0.9, 0.5) // accepted
		d.Label = &flip                       // but labelled false
		h.sup.Decide(d)
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 8})
	if _, err := h.sup.Step(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	if len(recs) != 1 || recs[0].Kind != KindTrigger {
		t.Fatalf("journal %+v, want one trigger", recs)
	}
	if recs[0].BaselineAccept != 1 {
		t.Errorf("baseline %.2f, want 1 (Accepted stayed honest)", recs[0].BaselineAccept)
	}
	payload, err := h.sup.loadWindowForTest()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range payload.Observations {
		if o.Correct {
			t.Errorf("window obs %d label true, want flipped false", i)
		}
	}
}

// loadWindowForTest exposes the open cycle's persisted window.
func (s *Supervisor) loadWindowForTest() (windowPayload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadWindow()
}
