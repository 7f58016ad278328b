package adapt

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// stage feeds accepted decisions at times 0..n-1 and stages a trigger at
// time at.
func stage(h *harness, n int, at float64) {
	for i := 0; i < n; i++ {
		h.sup.Decide(mkDecision(float64(i), 0.9, 0.5))
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: at})
}

// toCanary stages a cycle as stage does and drains it into its canary
// watch.
func toCanary(t *testing.T, h *harness, n int, at float64) {
	t.Helper()
	stage(h, n, at)
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := h.sup.State(); st != StateCanary {
		t.Fatalf("state %v after drain, want canary", st)
	}
}

// counterValue reads one counter of the registry.
func counterValue(reg *obs.Registry, name string) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestDecideZeroAllocThroughCanaryClose pins Decide's contract on the
// serving path: with a full window and a metrics registry attached it does
// not allocate, and neither does the decision that closes a canary window.
// That decision leaves the journal untouched; the next Step journals the
// canary pass at the closing decision's clamped time, with the frozen
// counts and the base cool-down.
func TestDecideZeroAllocThroughCanaryClose(t *testing.T) {
	cfg := smallConfig()
	cfg.CanaryWindow = 8
	cfg.Metrics = obs.NewRegistry()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))

	for i := 0; i < cfg.WindowSize; i++ {
		h.sup.Decide(mkDecision(float64(i), 0.9, 0.5))
	}
	at := float64(cfg.WindowSize)
	steady := []Decision{mkDecision(0, 0.9, 0.5), mkDecision(0, 0.1, 0.5), {Cues: []float64{9}}}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range steady {
			at++
			d.At = at
			h.sup.Decide(d)
		}
	}); n != 0 {
		t.Fatalf("Decide on a full window allocates %v times per run, want 0", n)
	}

	toCanary(t, h, 0, 500)
	journal := filepath.Join(h.dir, "state", JournalName)
	before := len(h.sup.Journal())
	beforeCRC := mustCRC(t, journal)
	// Stamps that jitter before the trigger clamp to its time.
	for i := 0; i < cfg.CanaryWindow-2; i++ {
		h.sup.Decide(mkDecision(400, 0.9, 0.5))
	}
	// AllocsPerRun warms up with one call, so the measured call is the
	// canary window's closing decision.
	if n := testing.AllocsPerRun(1, func() { h.sup.Decide(mkDecision(400, 0.9, 0.5)) }); n != 0 {
		t.Fatalf("the canary-closing Decide allocates %v times, want 0", n)
	}
	// Decisions after the close do not move the frozen verdict.
	h.sup.Decide(mkDecision(600, 0.1, 0.5))
	if got := len(h.sup.Journal()); got != before {
		t.Fatalf("journal grew from %d to %d records before Step", before, got)
	}
	if got := mustCRC(t, journal); got != beforeCRC {
		t.Fatalf("journal bytes changed before Step: %s, want %s", got, beforeCRC)
	}
	if st := h.sup.State(); st != StateCanary {
		t.Fatalf("state %v before Step, want canary", st)
	}

	worked, err := h.sup.Step()
	if err != nil || !worked {
		t.Fatalf("Step = %v, %v; want the canary close", worked, err)
	}
	recs := h.sup.Journal()
	last := recs[len(recs)-1]
	want := Record{
		Seq: int64(before + 1), Cycle: 1, Kind: KindCanaryPass, At: 500,
		BaselineAccept: recs[0].BaselineAccept, CanaryAccept: 1,
		CooldownUntil: 500 + cfg.CooldownBase,
	}
	if last != want {
		t.Errorf("canary close record %+v, want %+v", last, want)
	}
	if st := h.sup.State(); st != StateIdle {
		t.Errorf("state %v after the close, want idle", st)
	}
	if worked, err := h.sup.Step(); worked || err != nil {
		t.Errorf("second Step = %v, %v; want no work", worked, err)
	}
	if got := counterValue(cfg.Metrics, MetricCanaryPasses); got != 1 {
		t.Errorf("%s = %v, want 1", MetricCanaryPasses, got)
	}
}

// TestCanaryRegressionRollsBack drives a promoted candidate whose canary
// window accepts nothing: Step restores the last-good model bytes, the
// handle serves the incumbent again, and the rollback is journaled with
// the grown back-off.
func TestCanaryRegressionRollsBack(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = obs.NewRegistry()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	toCanary(t, h, 10, 10)
	if q, _ := h.handle.Load().Score([]float64{0.5}, sensor.Context(0)); math.Abs(q-0.8) > 1e-12 {
		t.Fatalf("promoted model scores %v, want the candidate's 0.8", q)
	}
	for i := 0; i < cfg.CanaryWindow; i++ {
		h.sup.Decide(mkDecision(float64(11+i), 0.1, 0.5))
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	last := recs[len(recs)-1]
	if last.Kind != KindRollback || last.CanaryAccept != 0 || last.At != 14 || last.CooldownUntil != 14+cfg.CooldownBase {
		t.Fatalf("terminal record %+v, want a rollback at 14 with canary accept 0", last)
	}
	if strings.Contains(last.Reason, ";") {
		t.Errorf("rollback reason %q reports a restore failure", last.Reason)
	}
	if got, want := mustCRC(t, h.modelPath), mustCRC(t, h.watcher.LastGoodPath()); got != want {
		t.Errorf("model CRC %s after rollback, want last-good %s", got, want)
	}
	if q, _ := h.handle.Load().Score([]float64{0.5}, sensor.Context(0)); math.Abs(q-0.7) > 1e-12 {
		t.Errorf("model after rollback scores %v, want the incumbent's 0.7", q)
	}
	if st := h.sup.Status(); st.State != "idle" || st.FailStreak != 1 || st.Rollbacks != 1 {
		t.Errorf("status after rollback %+v", st)
	}
	if got := counterValue(cfg.Metrics, MetricRollbacks); got != 1 {
		t.Errorf("%s = %v, want 1", MetricRollbacks, got)
	}
}

// TestCanaryRollbackWithoutLastGood closes a regressed canary whose
// last-good copy has vanished: the rollback is still journaled, and its
// reason says the restore could not run.
func TestCanaryRollbackWithoutLastGood(t *testing.T) {
	cfg := smallConfig()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	toCanary(t, h, 10, 10)
	if err := os.Remove(h.watcher.LastGoodPath()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.CanaryWindow; i++ {
		h.sup.Decide(mkDecision(float64(11+i), 0.1, 0.5))
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	last := recs[len(recs)-1]
	if last.Kind != KindRollback || !strings.Contains(last.Reason, "last-good unreadable") {
		t.Fatalf("terminal record %+v, want a rollback naming the unreadable last-good", last)
	}
}

// TestGateQuarantinesRegressedCandidate retrains into a candidate that
// scores every validation decision far from its pseudo-label: the gate
// quarantines it, nothing is promoted, and the serving model is untouched.
func TestGateQuarantinesRegressedCandidate(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = obs.NewRegistry()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.2)))
	modelCRC := mustCRC(t, h.modelPath)
	stage(h, 10, 10)
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	last := recs[len(recs)-1]
	if last.Kind != KindQuarantine || last.Reason == "" || last.CandidateRMSE <= last.IncumbentRMSE {
		t.Fatalf("terminal record %+v, want a quarantine with the candidate's RMSE above the incumbent's", last)
	}
	if last.CooldownUntil != 10+cfg.CooldownBase {
		t.Errorf("cool-down until %v, want %v", last.CooldownUntil, 10+cfg.CooldownBase)
	}
	if got := mustCRC(t, h.modelPath); got != modelCRC {
		t.Errorf("serving model changed by a quarantined cycle")
	}
	if got := counterValue(cfg.Metrics, MetricQuarantined); got != 1 {
		t.Errorf("%s = %v, want 1", MetricQuarantined, got)
	}
	if err := VerifyRecords(recs); err != nil {
		t.Error(err)
	}
}

// TestRealRetrain runs the production shadow retrain on a small window:
// core.Build over the snapshotted decisions ends in a retrain-done record
// that names its epochs and stop reason, and a candidate artifact the gate
// then rules on. The cycle directory holds the window and the candidate
// and nothing else.
func TestRealRetrain(t *testing.T) {
	cfg := smallConfig()
	cfg.WindowSize = 64
	cfg.MinWindow = 32
	cfg.MaxEpochs = 4
	cfg.Build.Clustering.Radius = 0.5
	cfg.Metrics = obs.NewRegistry()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cfg.WindowSize; i++ {
		cue := rng.Float64()
		h.sup.Decide(Decision{
			At: float64(i), Cues: []float64{cue}, Class: sensor.Context(i % 2),
			HasQ: true, Accepted: cue > 0.4,
		})
	}
	h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 100})
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	if len(recs) < 3 || recs[1].Kind != KindRetrainDone {
		t.Fatalf("journal %+v, want trigger, retrain-done and a gate ruling", recs)
	}
	if recs[1].Epochs < 1 || recs[1].Epochs > cfg.MaxEpochs || recs[1].StopReason == "" {
		t.Errorf("retrain-done %+v, want 1..%d epochs and a stop reason", recs[1], cfg.MaxEpochs)
	}
	cycleDir := filepath.Join(h.dir, "state", CycleDirName(1))
	if got, want := dirNames(t, cycleDir), []string{CandidateArtifactName, WindowArtifactName}; !slices.Equal(got, want) {
		t.Errorf("cycle directory holds %v, want exactly %v", got, want)
	}
	if _, err := VerifyJournal(filepath.Join(h.dir, "state")); err != nil {
		t.Error(err)
	}
}

// TestPromoteRejectedByWatcher promotes a candidate the watcher cannot
// load: the incumbent is restored and the cycle is abandoned without
// growing the back-off.
func TestPromoteRejectedByWatcher(t *testing.T) {
	cfg := smallConfig()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	modelCRC := mustCRC(t, h.modelPath)
	stage(h, 10, 10)
	for h.sup.State() != StatePromoting {
		if worked, err := h.sup.Step(); err != nil || !worked {
			t.Fatalf("Step = %v, %v before promotion", worked, err)
		}
	}
	cand := filepath.Join(h.dir, "state", CycleDirName(1), CandidateArtifactName)
	if err := os.WriteFile(cand, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	last := recs[len(recs)-1]
	if last.Kind != KindAbandoned || !strings.Contains(last.Reason, "watcher rejected") {
		t.Fatalf("terminal record %+v, want an abandoned cycle", last)
	}
	if got := mustCRC(t, h.modelPath); got != modelCRC {
		t.Errorf("model CRC %s after a refused promotion, want the incumbent's %s", got, modelCRC)
	}
	if st := h.sup.Status(); st.FailStreak != 0 {
		t.Errorf("fail streak %d after an abandoned cycle, want 0", st.FailStreak)
	}
}

// TestGateAbandonsWithoutIncumbent rules on a candidate while no model is
// loaded: with nothing to compare against, the cycle is abandoned.
func TestGateAbandonsWithoutIncumbent(t *testing.T) {
	h := newHarness(t, t.TempDir(), smallConfig(), biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	stage(h, 10, 10)
	for h.sup.State() != StateGated {
		if worked, err := h.sup.Step(); err != nil || !worked {
			t.Fatalf("Step = %v, %v before the gate", worked, err)
		}
	}
	h.handle.Store(nil)
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	recs := h.sup.Journal()
	if last := recs[len(recs)-1]; last.Kind != KindAbandoned {
		t.Fatalf("terminal record %+v, want abandoned", last)
	}
}
