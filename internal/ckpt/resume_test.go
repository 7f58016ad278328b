package ckpt

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cqm/internal/anfis"
	"cqm/internal/cluster"
	"cqm/internal/fuzzy"
	"cqm/internal/obs"
)

// sineData samples y = sin(x + phase) over [0, 2π] — the deterministic
// fixture every resume test trains on.
func sineData(n int, phase float64) *anfis.Data {
	d := &anfis.Data{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		d.X[i] = []float64{x}
		d.Y[i] = math.Sin(x + phase)
	}
	return d
}

// buildSine constructs the initial FIS for the sine fixture.
func buildSine(t *testing.T, train *anfis.Data) *fuzzy.TSK {
	t.Helper()
	sys, err := anfis.Build(train, anfis.BuildConfig{
		Clustering: cluster.SubtractiveConfig{Radius: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// testClock is a deterministic manifest clock.
func testClock() time.Time {
	return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
}

// marshal byte-serializes v for bit-identity comparison.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

const totalEpochs = 12

// trainWithCheckpoints runs the sine fixture for epochs epochs with a
// per-epoch checkpointer writing into dir, returning the trained system.
func trainWithCheckpoints(t *testing.T, dir, hash string, epochs, workers int, resume *anfis.TrainState, reg *obs.Registry) *fuzzy.TSK {
	t.Helper()
	train, check := sineData(60, 0), sineData(25, 0.05)
	sys := buildSine(t, train)
	cp, err := NewCheckpointer(CheckpointConfig{
		Dir:        dir,
		ConfigHash: hash,
		Now:        testClock,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anfis.Train(sys, train, check, anfis.Config{
		Epochs:   epochs,
		Observer: cp,
		Workers:  workers,
		Resume:   resume,
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestKillResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// The reference: an uninterrupted run.
		want := marshal(t, trainWithCheckpoints(t, t.TempDir(), "h1", totalEpochs, workers, nil, nil))

		// The "killed" run: training stops cold after a few epochs — as a
		// SIGKILL at a random epoch would — leaving only its checkpoints.
		for _, killAt := range []int{3, 7, totalEpochs - 1} {
			dir := t.TempDir()
			trainWithCheckpoints(t, dir, "h1", killAt, workers, nil, nil)

			res, err := LatestState(dir, "h1", nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped != 0 {
				t.Errorf("skipped %d checkpoints in a clean dir", res.Skipped)
			}
			got := marshal(t, trainWithCheckpoints(t, dir, "h1", totalEpochs, workers, res.State, nil))
			if got != want {
				t.Errorf("workers=%d kill@%d: resumed weights differ from uninterrupted run",
					workers, killAt)
			}
		}
	}
}

func TestKillResumeSkipsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := marshal(t, trainWithCheckpoints(t, t.TempDir(), "h1", totalEpochs, 1, nil, nil))
	trainWithCheckpoints(t, dir, "h1", 7, 1, nil, nil)

	// Simulate a torn write of the newest checkpoint. The atomic writer
	// makes real torn files impossible, so tear it by hand.
	newest := CheckpointPath(dir, 6)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	res, err := LatestState(dir, "h1", reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", res.Skipped)
	}
	if got := reg.Counter(MetricCkptSkipped).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricCkptSkipped, got)
	}
	if res.State.Epoch != 5 {
		t.Errorf("resumed from epoch %d, want 5", res.State.Epoch)
	}
	got := marshal(t, trainWithCheckpoints(t, dir, "h1", totalEpochs, 1, res.State, nil))
	if got != want {
		t.Error("resume past a torn checkpoint did not converge to the uninterrupted weights")
	}
}

func TestLatestStateErrors(t *testing.T) {
	t.Run("missing dir", func(t *testing.T) {
		_, err := LatestState(filepath.Join(t.TempDir(), "nope"), "", nil)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
	})
	t.Run("empty dir", func(t *testing.T) {
		_, err := LatestState(t.TempDir(), "", nil)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
	})
	t.Run("all corrupt", func(t *testing.T) {
		dir := t.TempDir()
		trainWithCheckpoints(t, dir, "h1", 3, 1, nil, nil)
		for epoch := 0; epoch < 3; epoch++ {
			if err := os.WriteFile(CheckpointPath(dir, epoch), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := LatestState(dir, "h1", nil)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
	})
	t.Run("config mismatch", func(t *testing.T) {
		dir := t.TempDir()
		trainWithCheckpoints(t, dir, "h1", 3, 1, nil, nil)
		_, err := LatestState(dir, "other", nil)
		if !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("err = %v, want ErrConfigMismatch", err)
		}
	})
	t.Run("no hash check when empty", func(t *testing.T) {
		dir := t.TempDir()
		trainWithCheckpoints(t, dir, "h1", 3, 1, nil, nil)
		if _, err := LatestState(dir, "", nil); err != nil {
			t.Errorf("hashless resume refused: %v", err)
		}
	})
}

func TestCheckpointerArtifacts(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	trainWithCheckpoints(t, dir, "h1", 5, 1, nil, reg)

	for epoch := 0; epoch < 4; epoch++ {
		var st anfis.TrainState
		man, err := ReadArtifact(CheckpointPath(dir, epoch), KindCheckpoint, &st)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if man.Epoch != epoch || man.ConfigHash != "h1" {
			t.Errorf("epoch %d manifest = %+v", epoch, man)
		}
		if !man.CreatedAt.Equal(testClock()) {
			t.Errorf("epoch %d CreatedAt = %v", epoch, man.CreatedAt)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("epoch %d state invalid: %v", epoch, err)
		}
	}
	var best anfis.TrainState
	bestMan, err := ReadArtifact(BestCheckpointPath(dir), KindCheckpoint, &best)
	if err != nil {
		t.Fatal(err)
	}
	if bestMan.Epoch != best.Epoch {
		t.Errorf("best manifest epoch %d, state epoch %d", bestMan.Epoch, best.Epoch)
	}
	if got := reg.Counter(MetricCkptWrites).Value(); got == 0 {
		t.Errorf("%s = 0 after training", MetricCkptWrites)
	}
	if got := reg.Counter(MetricCkptWriteErrors).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricCkptWriteErrors, got)
	}
}

func TestCheckpointerInterval(t *testing.T) {
	dir := t.TempDir()
	train, check := sineData(60, 0), sineData(25, 0.05)
	sys := buildSine(t, train)
	cp, err := NewCheckpointer(CheckpointConfig{Dir: dir, Interval: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anfis.Train(sys, train, check, anfis.Config{Epochs: 8, Observer: cp}); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 7; epoch++ {
		_, statErr := os.Stat(CheckpointPath(dir, epoch))
		wantExists := epoch%3 == 0
		if gotExists := statErr == nil; gotExists != wantExists {
			t.Errorf("checkpoint for epoch %d: exists=%v, want %v", epoch, gotExists, wantExists)
		}
	}
	if st := cp.LastState(); st == nil {
		t.Error("LastState nil after training")
	}
}

func TestCheckpointerWriteErrorsDoNotAbort(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewCheckpointer(CheckpointConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the checkpointer: every write
	// fails, training must still complete.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	train, check := sineData(60, 0), sineData(25, 0.05)
	sys := buildSine(t, train)
	hist, err := anfis.Train(sys, train, check, anfis.Config{Epochs: 4, Observer: cp})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainRMSE) == 0 {
		t.Fatal("no epochs ran")
	}
	if cp.WriteErrors() == 0 {
		t.Error("write errors not counted")
	}
	if cp.LastState() == nil {
		t.Error("in-memory state lost on write failure")
	}
}

func TestNewCheckpointerValidation(t *testing.T) {
	if _, err := NewCheckpointer(CheckpointConfig{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := NewCheckpointer(CheckpointConfig{Dir: t.TempDir(), Interval: -1}); err == nil {
		t.Error("negative interval accepted")
	}
}
