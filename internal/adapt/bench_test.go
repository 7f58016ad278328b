package adapt_test

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/quality"
	"cqm/internal/sensor"
	"cqm/internal/serve"
)

// BenchmarkShadowRetrain times one cycle's shadow retrain at the default
// Config, from the Step that loads the window artifact to the committed
// retrain-done record. The window holds 256 decisions that the serving
// quick model made on the serving workload. files/cycle counts what the
// cycle directory holds once the retrain is committed.
func BenchmarkShadowRetrain(b *testing.B) {
	model, threshold, err := serve.TrainQuickModel(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := serve.NewWorkload(serve.WorkloadConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const window = 256
	var decisions []adapt.Decision
	for r, buffered := 0, 0; buffered < window; r++ {
		it := wl.Item(0, r)
		q, err := model.Score(it.Cues, sensor.ContextByID(int(it.ClassID)))
		if err != nil && !core.IsEpsilon(err) {
			b.Fatal(err)
		}
		d := adapt.Decision{
			At: float64(r), Cues: it.Cues, Class: sensor.ContextByID(int(it.ClassID)),
			HasQ: err == nil, Accepted: err == nil && q > threshold,
		}
		if d.HasQ {
			buffered++
		}
		decisions = append(decisions, d)
	}

	dir := b.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := ckpt.WriteArtifact(modelPath, ckpt.Manifest{Kind: ckpt.KindMeasure}, model); err != nil {
		b.Fatal(err)
	}
	handle := ckpt.NewHandle(nil)
	watcher, err := ckpt.NewModelWatcher(ckpt.WatchConfig{Path: modelPath, DeferLastGood: true}, handle)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := watcher.Poll(); err != nil {
		b.Fatal(err)
	}

	files := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		state := filepath.Join(dir, "state-"+strconv.Itoa(i))
		sup, err := adapt.New(adapt.Config{
			Dir: state, ModelPath: modelPath, Watcher: watcher, Handle: handle, Threshold: threshold,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range decisions {
			sup.Decide(d)
		}
		sup.Trigger(quality.Trigger{Source: "pen", Kind: quality.TriggerPH, At: float64(len(decisions))})
		if worked, err := sup.Step(); !worked || err != nil {
			b.Fatalf("opening the cycle: Step = %v, %v", worked, err)
		}
		b.StartTimer()
		worked, err := sup.Step()
		b.StopTimer()
		if !worked || err != nil || sup.State() != adapt.StateGated {
			b.Fatalf("retrain: Step = %v, %v, state %v", worked, err, sup.State())
		}
		entries, err := os.ReadDir(filepath.Join(state, adapt.CycleDirName(1)))
		if err != nil {
			b.Fatal(err)
		}
		files = len(entries)
		if err := sup.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(files), "files/cycle")
}
