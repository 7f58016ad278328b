package serve

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"cqm/internal/classify"
	"cqm/internal/core"
	"cqm/internal/dataset"
	"cqm/internal/fault"
	"cqm/internal/feature"
	"cqm/internal/particle"
	"cqm/internal/sensor"
)

// Item is one pre-generated scoring request payload: a realistic cue
// vector and the class a (possibly wrong) classifier would publish with
// it.
type Item struct {
	// Cues is the extracted cue vector of one sensor window.
	Cues []float64
	// ClassID is the class identifier the request carries.
	ClassID byte
}

// WorkloadConfig parameterizes the deterministic request pool a load run
// replays.
type WorkloadConfig struct {
	// Seed drives every random choice (scenario noise, fault schedules,
	// class errors).
	Seed int64
	// FaultFraction is the fraction of scenario streams recorded with an
	// injected sensor fault (0..1). Faulted streams produce the
	// degraded, ambiguous windows that exercise the ε and discard paths.
	// Default 0.25.
	FaultFraction float64
	// ErrorRate is the fraction of items whose published class is
	// deliberately flipped to a wrong one, emulating classifier
	// mistakes. Default 0.15.
	ErrorRate float64
	// WindowSize is the readings-per-window of the cue extraction.
	// Default 100 (one second at the default sampling rate).
	WindowSize int
}

// withDefaults fills zero fields.
func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.FaultFraction == 0 {
		c.FaultFraction = 0.25
	}
	if c.ErrorRate == 0 {
		c.ErrorRate = 0.15
	}
	if c.WindowSize == 0 {
		c.WindowSize = 100
	}
	return c
}

// Workload is a deterministic pool of scoring-request payloads shared by
// any number of simulated pens: pen p's round r request is Item(p, r), a
// pure function of (seed, p, r), so a million pens need no per-pen state
// and two runs with the same seed replay the same traffic.
type Workload struct {
	items []Item
}

// workloadStyles are the user styles the scenario mix cycles through —
// the nominal user plus the exaggerated and sloppy variants the dataset
// generator uses elsewhere.
var workloadStyles = []sensor.Style{
	sensor.DefaultStyle(),
	{Amplitude: 1.6, Tempo: 1.2, Irregularity: 0.6},
	{Amplitude: 2.6, Tempo: 1.4, Irregularity: 0.9},
}

// workloadFaults builds the fault set injected into the faulted fraction
// of streams, seeded per stream.
func workloadFaults(stream int) []fault.SensorFault {
	switch stream % 4 {
	case 0:
		return []fault.SensorFault{&fault.StuckAxis{Axis: fault.AxisY, Start: 5}}
	case 1:
		return []fault.SensorFault{&fault.Saturation{Gain: 2.5}}
	case 2:
		return []fault.SensorFault{&fault.SpikeNoise{Prob: 0.03}}
	default:
		return []fault.SensorFault{&fault.Dropout{Start: 6, Duration: 2}}
	}
}

// NewWorkload records the scenario mix and extracts the request pool:
// office sessions across user styles, a FaultFraction of the streams
// degraded by injected sensor faults, windows reduced to cue vectors, and
// an ErrorRate of the published classes flipped to a wrong class.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.FaultFraction < 0 || cfg.FaultFraction > 1 {
		return nil, fmt.Errorf("serve: fault fraction %v outside [0,1]", cfg.FaultFraction)
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate > 1 {
		return nil, fmt.Errorf("serve: error rate %v outside [0,1]", cfg.ErrorRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const streams = 8
	faulted := int(float64(streams) * cfg.FaultFraction)
	var items []Item
	for i := 0; i < streams; i++ {
		scenario := sensor.OfficeSession(workloadStyles[i%len(workloadStyles)])
		readings, err := scenario.Run(rng)
		if err != nil {
			return nil, fmt.Errorf("serve: recording workload stream %d: %w", i, err)
		}
		if i < faulted {
			inj := fault.NewInjector(cfg.Seed+int64(i), workloadFaults(i)...)
			if readings, err = inj.Apply(readings); err != nil {
				return nil, fmt.Errorf("serve: injecting faults into stream %d: %w", i, err)
			}
		}
		windows, err := (feature.Windower{Size: cfg.WindowSize}).Slide(readings)
		if err != nil {
			return nil, fmt.Errorf("serve: windowing stream %d: %w", i, err)
		}
		for _, w := range windows {
			class := w.Truth
			if rng.Float64() < cfg.ErrorRate {
				class = wrongClass(class, rng)
			}
			items = append(items, Item{Cues: w.Cues, ClassID: byte(class.ID())})
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("serve: workload produced no items")
	}
	return &Workload{items: items}, nil
}

// wrongClass picks a uniformly random context different from truth.
func wrongClass(truth sensor.Context, rng *rand.Rand) sensor.Context {
	all := sensor.AllContexts()
	pick := all[rng.Intn(len(all))]
	if pick == truth {
		pick = all[(pick.ID())%len(all)] // next class in id order
	}
	return pick
}

// Len returns the pool size.
func (w *Workload) Len() int { return len(w.items) }

// Item returns pen p's round-r payload: the pool entry at a per-pen
// offset derived from the pen's node hash, advanced once per round.
func (w *Workload) Item(pen, round int) Item {
	node := PenNode(pen)
	off := int(fnv64a(node[:]) % uint64(len(w.items)))
	return w.items[(off+round)%len(w.items)]
}

// PenNode derives the stable 8-byte node id of simulated pen i: the name
// fmt.Sprintf("p%07d", i) would give, truncated to 8 bytes, built without
// allocating.
func PenNode(i int) particle.NodeID {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	id := particle.NodeID{'p'}
	n := 1
	if d[0] == '-' {
		id[n] = '-'
		n++
		d = d[1:]
	}
	// %07d pads with zeros to 7 characters, the sign included.
	for pad := 7 - (n - 1) - len(d); pad > 0; pad-- {
		id[n] = '0'
		n++
	}
	copy(id[n:], d)
	return id
}

// TrainQuickModel trains a small but real recognition stack — classifier
// on a clean session, quality FIS on mixed-style office sessions — and
// returns the measure with its analysis threshold. It is the in-process
// model source for cqmserve and cqmload runs that are not handed an
// artifact; with the same seed and any worker count the resulting model
// is bit-identical.
//
// The clean and the mixed set draw from RNGs of their own seeds, so the
// classifier trains on its own goroutine while this one generates the
// mixed set; the quality FIS waits for both. That shape is fixed, whatever
// workers says.
func TrainQuickModel(seed int64, workers int) (*core.Measure, float64, error) {
	var (
		clf    classify.Classifier
		clfErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		clf, clfErr = trainQuickClassifier(seed)
	}()
	mixed, err := dataset.Generate(dataset.GenerateConfig{
		Scenarios: []*sensor.Scenario{
			sensor.OfficeSession(sensor.DefaultStyle()),
			sensor.OfficeSession(sensor.Style{Amplitude: 2.6, Tempo: 1.4, Irregularity: 0.9}),
			sensor.OfficeSession(sensor.Style{Amplitude: 1.6, Tempo: 1.2, Irregularity: 0.6}),
		},
		WindowSize: 100,
		WindowStep: 50,
		Seed:       seed + 1,
	})
	wg.Wait()
	if clfErr != nil {
		return nil, 0, clfErr
	}
	if err != nil {
		return nil, 0, err
	}
	observations, err := core.Observe(clf, mixed)
	if err != nil {
		return nil, 0, err
	}
	build := core.BuildConfig{}
	build.Clustering.Workers = workers
	build.Hybrid.Workers = workers
	measure, err := core.Build(observations, nil, build)
	if err != nil {
		return nil, 0, err
	}
	analysis, err := core.Analyze(measure, observations)
	if err != nil {
		return nil, 0, err
	}
	return measure, analysis.Threshold, nil
}

// trainQuickClassifier trains TrainQuickModel's classifier on one clean
// session of every context.
func trainQuickClassifier(seed int64) (classify.Classifier, error) {
	clean, err := dataset.Generate(dataset.GenerateConfig{
		Scenarios: []*sensor.Scenario{{Segments: []sensor.Segment{
			{Context: sensor.ContextLying, Duration: 12},
			{Context: sensor.ContextWriting, Duration: 12},
			{Context: sensor.ContextPlaying, Duration: 12},
		}}},
		WindowSize: 100,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	return (&classify.TSKTrainer{}).Train(clean)
}
