package awareoffice

import (
	"errors"
	"fmt"
	"strconv"

	"cqm/internal/classify"
	"cqm/internal/core"
	"cqm/internal/feature"
	"cqm/internal/parallel"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// Appliance errors.
var (
	// ErrNotWired reports an appliance used before Attach.
	ErrNotWired = errors.New("awareoffice: appliance not attached to a bus")
)

// MeasureSource supplies the current quality measure at scoring time — the
// hook hot-reload watchers (ckpt.Handle) plug into. Load may return nil
// when no model is available yet; the appliance then publishes legacy
// events without quality, exactly as with a nil Measure.
type MeasureSource interface {
	// Load returns the measure to score with right now.
	Load() *core.Measure
}

// Pen is the AwarePen appliance: it windows its accelerometer stream,
// classifies every window, scores the classification with the CQM, and
// publishes the result as a context event at the window's end time.
type Pen struct {
	// Name identifies the pen on the bus. Default "awarepen".
	Name string
	// Classifier is the pen's context recognition — any black box.
	Classifier classify.Classifier
	// Measure optionally annotates events with quality values; nil
	// publishes legacy events without quality.
	Measure *core.Measure
	// Source, when non-nil, takes precedence over Measure and is consulted
	// on every scoring decision — the hot-reload path. The measure is
	// snapshotted once per decision, so a concurrent swap never mixes two
	// models inside one batch or window.
	Source MeasureSource
	// WindowSize is the readings per classification window. Default 100.
	WindowSize int
	// Windower pipeline; nil uses the paper's per-axis stddev cues.
	Pipeline *feature.Pipeline
	// Degradation, when non-nil, runs the input-fault detectors over
	// every window; flagged windows are classified as usual but their
	// quality is forced into the ε error state (core.ScoreDegraded), so
	// the event goes out without a quality annotation and quality-aware
	// receivers discard it — graceful degradation through the paper's own
	// ε channel. Detection happens at windowing time and is a pure
	// function of the readings, so it is identical at any worker count.
	Degradation *feature.DegradationConfig
	// PreScoreWorkers, when >= 1, classifies every window at Feed time
	// and scores the classifications in one batch (1 = serial batch,
	// n = n workers) instead of per event as the simulation fires. The
	// published events are bit-identical to the legacy path — the
	// classifier and the measure are pure, so only the evaluation time
	// moves — except that a non-ε scoring failure surfaces as a Feed
	// error instead of a silently unannotated event. 0 keeps the legacy
	// per-event path.
	PreScoreWorkers int
	// Quality, when non-nil, receives one observation per published event
	// — the quality analytics engine's feed point. Observations happen at
	// publish time in virtual-time order, so engine state is bit-identical
	// between the per-event and pre-scored paths at any worker count.
	Quality *quality.Engine
	// Tracer, when non-nil, samples end-to-end pipeline traces starting at
	// the window's sample time. Nil disables tracing at zero cost.
	Tracer *quality.Tracer

	bus      *Bus
	seq      int
	degraded int
}

// Attach wires the pen to a bus.
func (p *Pen) Attach(bus *Bus) {
	p.bus = bus
}

// ScheduleReboot models a node reboot at virtual time at: the pen's
// sequence counter resets to zero, as a real Particle node's would after a
// power cycle. Receivers must tolerate the reset — the dedup window treats
// a sequence far behind the current one as a reboot and restarts tracking
// instead of rejecting the reborn node.
//
//lint:ignore unused TestPenScheduleReboot drives the camera's reboot tolerance through it
func (p *Pen) ScheduleReboot(sim *Simulation, at float64) error {
	return sim.Schedule(at, func() { p.seq = 0 })
}

// Feed schedules the classification and publication of the recording:
// each window produces one context event at the window's end time.
// It returns the number of scheduled events.
func (p *Pen) Feed(sim *Simulation, readings []sensor.Reading) (int, error) {
	if p.bus == nil {
		return 0, ErrNotWired
	}
	if p.Classifier == nil {
		return 0, fmt.Errorf("awareoffice: pen %q has no classifier", p.name())
	}
	size := p.WindowSize
	if size == 0 {
		size = 100
	}
	windows, err := (feature.Windower{Size: size, Pipeline: p.Pipeline, Degradation: p.Degradation}).Slide(readings)
	if err != nil {
		return 0, fmt.Errorf("awareoffice: windowing pen stream: %w", err)
	}
	for _, w := range windows {
		if w.Degraded.Any() {
			p.degraded++
		}
	}
	if p.PreScoreWorkers >= 1 {
		return p.feedPreScored(sim, windows)
	}
	scheduled := 0
	for _, w := range windows {
		w := w
		at := w.End
		if at < sim.Now() {
			at = sim.Now()
		}
		if err := sim.Schedule(at, func() {
			p.classifyAndPublish(w)
		}); err != nil {
			return scheduled, fmt.Errorf("awareoffice: scheduling window: %w", err)
		}
		scheduled++
	}
	return scheduled, nil
}

// penOutcome is one window's precomputed recognition result.
type penOutcome struct {
	class sensor.Context
	ok    bool // classification publishable
	q     float64
	hasQ  bool
}

// feedPreScored is Feed's batch path: classify every window up front,
// score all publishable classifications in one ScoreBatch, and schedule
// callbacks that only publish the precomputed outcomes.
func (p *Pen) feedPreScored(sim *Simulation, windows []feature.Window) (int, error) {
	outs := make([]penOutcome, len(windows))
	for i, w := range windows {
		class, err := p.Classifier.Classify(w.Cues)
		if err != nil || class == sensor.ContextUnknown {
			continue // stays silent, like the per-event path
		}
		outs[i].class = class
		outs[i].ok = true
	}
	if m := p.measure(); m != nil {
		var batchIdx []int
		var batch []core.Observation
		for i := range outs {
			if !outs[i].ok {
				continue
			}
			if windows[i].Degraded.Any() {
				// ε by construction: the event goes out without quality,
				// exactly like the per-event path's ScoreDegraded result.
				continue
			}
			batchIdx = append(batchIdx, i)
			batch = append(batch, core.Observation{Cues: windows[i].Cues, Class: outs[i].class})
		}
		if len(batch) > 0 {
			qs, ok, err := m.ScoreBatch(batch, parallel.New(p.PreScoreWorkers))
			if err != nil {
				return 0, fmt.Errorf("awareoffice: pre-scoring pen windows: %w", err)
			}
			for bi, i := range batchIdx {
				if ok[bi] {
					outs[i].q, outs[i].hasQ = qs[bi], true
				}
				// ε state: publish without quality, like the per-event path.
			}
		}
	}
	scheduled := 0
	for i, w := range windows {
		w, out := w, outs[i]
		at := w.End
		if at < sim.Now() {
			at = sim.Now()
		}
		if err := sim.Schedule(at, func() {
			p.publishPreScored(w, out)
		}); err != nil {
			return scheduled, fmt.Errorf("awareoffice: scheduling window: %w", err)
		}
		scheduled++
	}
	return scheduled, nil
}

// publishPreScored publishes one precomputed outcome at its window's end.
func (p *Pen) publishPreScored(w feature.Window, out penOutcome) {
	if !out.ok {
		return
	}
	ev := Event{
		Source:  p.name(),
		Context: out.class,
		Sent:    w.End,
		Seq:     p.seq,
	}
	p.seq++
	if out.hasQ {
		ev.Quality = out.q
		ev.HasQuality = true
	}
	p.observe(ev, w)
	// Publish errors cannot occur here: delivery times are >= now.
	_ = p.bus.Publish(ev)
}

// observe feeds the published event to the quality engine and, when the
// sampler picks it, starts a pipeline trace with the pen-side stages.
// Both publish paths call it with identical events, so tracking state is
// identical too.
func (p *Pen) observe(ev Event, w feature.Window) {
	p.Quality.Observe(quality.Observation{
		Source:   ev.Source,
		At:       ev.Sent,
		Q:        ev.Quality,
		HasQ:     ev.HasQuality,
		Degraded: w.Degraded.Any(),
	})
	if p.Tracer.Begin(ev.Source, ev.Seq, w.Start) {
		detail := "epsilon"
		if ev.HasQuality {
			detail = "q=" + strconv.FormatFloat(ev.Quality, 'f', 4, 64)
		}
		p.Tracer.Record(ev.Seq, quality.StageSample, w.Start, "")
		p.Tracer.Record(ev.Seq, quality.StageScore, ev.Sent, detail)
		p.Tracer.Record(ev.Seq, quality.StagePublish, ev.Sent, "")
	}
}

// classifyAndPublish runs the pen's recognition pipeline for one window.
func (p *Pen) classifyAndPublish(w feature.Window) {
	class, err := p.Classifier.Classify(w.Cues)
	if err != nil || class == sensor.ContextUnknown {
		// Out-of-range cues: the appliance stays silent, like a node whose
		// recognizer produced nothing publishable.
		return
	}
	ev := Event{
		Source:  p.name(),
		Context: class,
		Sent:    w.End,
		Seq:     p.seq,
	}
	p.seq++
	if m := p.measure(); m != nil {
		if q, err := p.scoreWindow(m, w, class); err == nil {
			ev.Quality = q
			ev.HasQuality = true
		}
		// ε state: publish without quality; receivers decide what to do
		// with unannotated events.
	}
	p.observe(ev, w)
	// Publish errors cannot occur here: delivery times are >= now.
	_ = p.bus.Publish(ev)
}

// scoreWindow scores one window's classification through the given
// measure snapshot, forcing windows flagged as degraded through the ε
// error state.
func (p *Pen) scoreWindow(m *core.Measure, w feature.Window, class sensor.Context) (float64, error) {
	if w.Degraded.Any() {
		return core.ScoreDegraded()
	}
	return m.Score(w.Cues, class)
}

// measure snapshots the quality measure for one scoring decision: the
// Source when set (hot reload), the static Measure field otherwise.
func (p *Pen) measure() *core.Measure {
	if p.Source != nil {
		return p.Source.Load()
	}
	return p.Measure
}

// DegradedWindows returns the number of fed windows flagged as degraded.
//
//lint:ignore unused TestSensorFaultsForceEpsilonEndToEnd probes the pen with it
func (p *Pen) DegradedWindows() int { return p.degraded }

func (p *Pen) name() string {
	if p.Name == "" {
		return "awarepen"
	}
	return p.Name
}
