package adapt

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cqm/internal/ckpt"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// realConfig is the supervisor tuning of the real-training tests: a window
// small enough to retrain in milliseconds, at the given training worker
// count.
func realConfig(workers int) Config {
	cfg := smallConfig()
	cfg.WindowSize = 64
	cfg.MinWindow = 32
	cfg.MaxEpochs = 4
	cfg.Build.Clustering.Radius = 0.5
	cfg.Build.Clustering.Workers = workers
	cfg.Build.Hybrid.Workers = workers
	return cfg
}

// feedReal feeds n seeded decisions from virtual time at on: one random
// cue, alternating classes, accepted above 0.1 (mostly accepted, as a healthy incumbent serves).
func feedReal(sup *Supervisor, rng *rand.Rand, n int, at float64) {
	for i := 0; i < n; i++ {
		cue := rng.Float64()
		sup.Decide(Decision{
			At: at + float64(i), Cues: []float64{cue}, Class: sensor.Context(i % 2),
			HasQ: true, Accepted: cue > 0.1,
		})
	}
}

// runRealCycle drains a staged cycle through its real retrain and, if the
// candidate was promoted, closes the canary with accepted decisions from
// virtual time at on.
func runRealCycle(t *testing.T, h *harness, at float64) {
	t.Helper()
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.sup.cfg.CanaryWindow; i++ {
		h.sup.Decide(mkDecision(at+float64(i), 0.9, 0.5))
	}
	if err := h.sup.Drain(); err != nil {
		t.Fatal(err)
	}
}

// dirNames lists the entries of dir, sorted by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestKillResumeRealTraining crashes a cycle whose retrain is real
// core.Build training right after its trigger record, at 1 and 4 training
// workers, and once more with a stale candidate left in the cycle
// directory as if a crash had beaten the retrain-done record. The resumed
// run re-trains from the window artifact and must end with the journal,
// model and last-good bytes of the uninterrupted run, which are the same
// at both worker counts.
func TestKillResumeRealTraining(t *testing.T) {
	incumbent := biasMeasure(t, 0.7)
	stale := biasMeasure(t, 0.2)
	var refCRCs []string
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := realConfig(workers)
			// open feeds the window and commits the trigger record.
			open := func(dir string) *harness {
				h := newHarness(t, dir, cfg, incumbent, nil)
				feedReal(h.sup, rand.New(rand.NewSource(1)), cfg.WindowSize, 0)
				h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: 100})
				if worked, err := h.sup.Step(); !worked || err != nil {
					t.Fatalf("opening the cycle: Step = %v, %v", worked, err)
				}
				return h
			}
			crcs := func(h *harness) []string {
				return []string{
					mustCRC(t, filepath.Join(h.dir, "state", JournalName)),
					mustCRC(t, h.modelPath),
					mustCRC(t, h.watcher.LastGoodPath()),
				}
			}

			refDir := t.TempDir()
			ref := open(refDir)
			runRealCycle(t, ref, 101)
			if err := ref.sup.Close(); err != nil {
				t.Fatal(err)
			}
			var kinds []string
			for _, r := range ref.sup.Journal() {
				kinds = append(kinds, r.Kind)
			}
			if want := []string{KindTrigger, KindRetrainDone, KindGatePass, KindPromoted, KindCanaryPass}; !slices.Equal(kinds, want) {
				t.Fatalf("reference journal %v, want %v: %+v", kinds, want, ref.sup.Journal())
			}
			want := crcs(ref)
			if refCRCs == nil {
				refCRCs = want
			} else if !slices.Equal(want, refCRCs) {
				t.Errorf("journal, model and last-good CRCs %v at %d workers, want %v as at 1 worker", want, workers, refCRCs)
			}

			for _, leaveStale := range []bool{false, true} {
				dir := t.TempDir()
				// The crashed supervisor is abandoned without Close, like a
				// killed process.
				open(dir)
				if leaveStale {
					cand := filepath.Join(dir, "state", CycleDirName(1), CandidateArtifactName)
					if err := ckpt.WriteArtifact(cand, ckpt.Manifest{Kind: ckpt.KindMeasure}, stale); err != nil {
						t.Fatal(err)
					}
				}
				resumed := newHarness(t, dir, cfg, incumbent, nil)
				if st := resumed.sup.State(); st != StateRetraining {
					t.Fatalf("stale=%v: resumed in %v, want retraining", leaveStale, st)
				}
				runRealCycle(t, resumed, 101)
				if err := resumed.sup.Close(); err != nil {
					t.Fatal(err)
				}
				if got := crcs(resumed); !slices.Equal(got, want) {
					t.Errorf("stale=%v: journal, model and last-good CRCs %v, want %v", leaveStale, got, want)
				}
				if _, err := VerifyJournal(filepath.Join(dir, "state")); err != nil {
					t.Errorf("stale=%v: %v", leaveStale, err)
				}
			}
		})
	}
}

// TestCycleFootprintBounded runs three real-training cycles and lists the
// state directory: the journal, and in each cycle directory the window
// and the candidate, nothing else.
func TestCycleFootprintBounded(t *testing.T) {
	cfg := realConfig(1)
	h := newHarness(t, t.TempDir(), cfg, biasMeasure(t, 0.7), nil)
	rng := rand.New(rand.NewSource(1))
	const cycles = 3
	for c := 0; c < cycles; c++ {
		at := float64(1000 * c)
		feedReal(h.sup, rng, cfg.WindowSize, at)
		h.sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: at + 100})
		runRealCycle(t, h, at+101)
	}
	if st := h.sup.Status(); st.Triggers != cycles || st.Retrains != cycles {
		t.Fatalf("status %+v, want %d triggers and %d retrains", st, cycles, cycles)
	}
	state := filepath.Join(h.dir, "state")
	want := []string{JournalName}
	for c := int64(1); c <= cycles; c++ {
		want = append(want, CycleDirName(c))
		if got, want := dirNames(t, filepath.Join(state, CycleDirName(c))), []string{CandidateArtifactName, WindowArtifactName}; !slices.Equal(got, want) {
			t.Errorf("cycle %d directory holds %v, want exactly %v", c, got, want)
		}
	}
	slices.Sort(want)
	if got := dirNames(t, state); !slices.Equal(got, want) {
		t.Errorf("state directory holds %v, want exactly %v", got, want)
	}
}
