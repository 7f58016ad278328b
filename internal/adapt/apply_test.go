package adapt

import (
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/quality"
)

// assertReplayMatches opens a second supervisor on a copy of h's journal
// and checks that replaying it reaches the live supervisor's state, cycle,
// fail streak and cool-down.
func assertReplayMatches(t *testing.T, h *harness, cfg Config) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(h.dir, "state", JournalName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Dir, cfg.ModelPath, cfg.Watcher, cfg.Handle = dir, h.modelPath, h.watcher, h.handle
	replayed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	live, got := h.sup.Status(), replayed.Status()
	if got.State != live.State || got.Cycle != live.Cycle || got.FailStreak != live.FailStreak || got.CooldownUntil != live.CooldownUntil {
		t.Fatalf("after %d records replay reads state %s, cycle %d, streak %d, cool-down %v; live reads %s, %d, %d, %v",
			len(h.sup.Journal()), got.State, got.Cycle, got.FailStreak, got.CooldownUntil,
			live.State, live.Cycle, live.FailStreak, live.CooldownUntil)
	}
}

// TestKillResumeReplayEqualsLive drives four paths — heal, quarantine, a
// retrain-failed flap storm and rollback — with a trigger offered at every
// decision, and after each committed record opens a supervisor on a copy
// of the journal: the replayed state must equal the live one at every
// record boundary. Each path must close several cycles the same way, so
// the fail streak and the back-off grow (or reset) along the way.
func TestKillResumeReplayEqualsLive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		train    func(_, _ []core.Observation) (*core.Measure, retrainInfo, error)
		canaryQ  float64
		terminal string
	}{
		{"heal", stubTrain(biasMeasure(t, 0.8)), 0.9, KindCanaryPass},
		{"quarantine", stubTrain(biasMeasure(t, 0.2)), 0.9, KindQuarantine},
		{"flap-storm", errorTrain, 0.9, KindRetrainFailed},
		{"rollback", stubTrain(biasMeasure(t, 0.8)), 0.1, KindRollback},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), tc.train)
			for i := 0; i < 100; i++ {
				at := float64(i)
				h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: at})
				q := 0.9
				if h.sup.State() == StateCanary {
					q = tc.canaryQ
				}
				h.sup.Decide(mkDecision(at, q, 0.5))
				for {
					worked, err := h.sup.Step()
					if err != nil {
						t.Fatalf("Step at decision %d: %v", i, err)
					}
					if !worked {
						break
					}
					assertReplayMatches(t, h, cfg)
				}
			}
			closes := 0
			for _, r := range h.sup.Journal() {
				if terminalKinds[r.Kind] {
					if r.Kind != tc.terminal {
						t.Fatalf("cycle %d closed with %s, want %s", r.Cycle, r.Kind, tc.terminal)
					}
					closes++
				}
			}
			if closes < 3 {
				t.Fatalf("%d cycles closed, want at least 3", closes)
			}
		})
	}
}

// TestCanaryCountersFollowJournal pins that every transition counter moves
// with its journal record and never ahead of it: a canary close whose
// append fails counts nothing however often Step retries it, and after
// committed cycles each counter equals its kind's count in the journal.
func TestCanaryCountersFollowJournal(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = obs.NewRegistry()
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)))
	closeWith := func(q, at float64) {
		for i := 0; i < cfg.CanaryWindow; i++ {
			h.sup.Decide(mkDecision(at+float64(i), q, 0.5))
		}
	}
	countersMatch := func() {
		t.Helper()
		for kind, name := range map[string]string{
			KindTrigger: MetricTriggers, KindRetrainDone: MetricRetrainsSucceeded,
			KindRetrainFailed: MetricRetrainsFailed, KindQuarantine: MetricQuarantined,
			KindPromoted: MetricPromotions, KindRollback: MetricRollbacks, KindCanaryPass: MetricCanaryPasses,
		} {
			want := 0
			for _, r := range h.sup.Journal() {
				if r.Kind == kind {
					want++
				}
			}
			if got := counterValue(cfg.Metrics, name); got != int64(want) {
				t.Errorf("%s = %d, journal holds %d %s records", name, got, want, kind)
			}
		}
	}

	toCanary(t, h, 10, 10) // heals
	closeWith(0.9, 11)
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	toCanary(t, h, 10, 30) // rolls back
	closeWith(0.1, 31)
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	countersMatch()
	if got := counterValue(cfg.Metrics, MetricCanaryPasses); got != 1 {
		t.Fatalf("%s = %d after one committed pass", MetricCanaryPasses, got)
	}

	toCanary(t, h, 10, 60)
	records := len(h.sup.Journal())
	if err := h.sup.jr.f.Close(); err != nil {
		t.Fatal(err)
	}
	closeWith(0.9, 61)
	for i := 0; i < 3; i++ {
		if worked, err := h.sup.Step(); worked || err != nil {
			t.Fatalf("Step %d with the journal closed = %v, %v; want no work and no error", i, worked, err)
		}
	}
	if got := len(h.sup.Journal()); got != records {
		t.Fatalf("journal grew from %d to %d records with its file closed", records, got)
	}
	if st := h.sup.Status(); st.State != "canary" || st.LastError == "" {
		t.Errorf("status %+v, want the canary open and the failed append in LastError", st)
	}
	countersMatch()
}

// TestHotPathNonBlockingDuringWatcherIO blocks the watcher's Smoke hook,
// first inside a promotion and then inside a rollback's canary close.
// While it is blocked, Decide, Trigger, Status and State return and a
// concurrent Step reports no work. Released, the run journals the same
// bytes as one whose watcher never blocked.
func TestHotPathNonBlockingDuringWatcherIO(t *testing.T) {
	run := func(block bool) ([]string, string) {
		var armed atomic.Bool
		entered := make(chan struct{})
		var release chan struct{}
		smoke := func(m *core.Measure) error {
			if armed.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
			return ckpt.SmokeProbe(m)
		}
		h := newWatchedHarness(t, t.TempDir(), smallConfig(), biasMeasure(t, 0.7), stubTrain(biasMeasure(t, 0.8)), smoke)
		// transition runs the next Step, which polls the watcher. The hot
		// path is driven during that Step when block is set, before it
		// otherwise.
		transition := func(want State, at float64) {
			hot := func() {
				h.sup.Decide(mkDecision(at, 0.1, 0.5))
				h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: at})
				_ = h.sup.Status()
				if st := h.sup.State(); st != want {
					t.Errorf("state %v during the transition, want %v", st, want)
				}
			}
			if !block {
				hot()
				if worked, err := h.sup.Step(); !worked || err != nil {
					t.Fatalf("Step = %v, %v; want the transition", worked, err)
				}
				return
			}
			release = make(chan struct{})
			armed.Store(true)
			stepDone := make(chan error, 1)
			go func() {
				_, err := h.sup.Step()
				stepDone <- err
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the transition never reached the watcher's smoke check")
			}
			hotDone := make(chan struct{})
			go func() {
				defer close(hotDone)
				hot()
				if worked, err := h.sup.Step(); worked || err != nil {
					t.Errorf("concurrent Step = %v, %v while the watcher is blocked; want no work", worked, err)
				}
			}()
			select {
			case <-hotDone:
			case <-time.After(10 * time.Second):
				t.Fatal("hot-path calls blocked behind the watcher")
			}
			close(release)
			if err := <-stepDone; err != nil {
				t.Fatal(err)
			}
		}

		stage(h, 10, 10)
		for h.sup.State() != StatePromoting {
			if worked, err := h.sup.Step(); err != nil || !worked {
				t.Fatalf("Step = %v, %v before promotion", worked, err)
			}
		}
		transition(StatePromoting, 11)
		for i := 0; i < h.sup.cfg.CanaryWindow; i++ {
			h.sup.Decide(mkDecision(float64(12+i), 0.1, 0.5))
		}
		transition(StateCanary, 20)
		if err := h.sup.Close(); err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for _, r := range h.sup.Journal() {
			kinds = append(kinds, r.Kind)
		}
		return kinds, mustCRC(t, filepath.Join(h.dir, "state", JournalName))
	}

	wantKinds, wantCRC := run(false)
	if want := []string{KindTrigger, KindRetrainDone, KindGatePass, KindPromoted, KindRollback}; !slices.Equal(wantKinds, want) {
		t.Fatalf("unblocked run journals %v, want %v", wantKinds, want)
	}
	kinds, crc := run(true)
	if !slices.Equal(kinds, wantKinds) || crc != wantCRC {
		t.Errorf("blocked run journals %v (CRC %s), want %v (CRC %s)", kinds, crc, wantKinds, wantCRC)
	}
}
