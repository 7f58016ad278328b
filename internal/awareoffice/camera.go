package awareoffice

import (
	"math"

	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// Metric names of the camera appliance.
const (
	// MetricCameraDecisions counts handled events by decision
	// (accept|ignore|duplicate), per camera.
	MetricCameraDecisions = "awareoffice_camera_decisions_total"
	// MetricCameraSnapshots counts pictures taken, per camera.
	MetricCameraSnapshots = "awareoffice_camera_snapshots_total"
	// MetricCameraFallbacks counts timeout-triggered fallback snapshots,
	// per camera.
	MetricCameraFallbacks = "awareoffice_camera_fallbacks_total"
)

// Snapshot is one picture the camera took.
type Snapshot struct {
	// At is the virtual time of the shutter.
	At float64
	// TriggeredBy is the context event that ended the writing session; for
	// a fallback snapshot it is the last event accepted before the silence.
	TriggeredBy Event
	// Fallback marks a snapshot taken by the silence timeout rather than
	// an observed context switch.
	Fallback bool
}

// Camera is the whiteboard camera appliance from the paper's motivation:
// it "takes a picture copy of the content when a writing session was
// over". It watches the pen's context events and fires when a writing
// phase transitions into a non-writing one.
//
// With UseQuality set, events carrying a quality at or below MinQuality —
// and events carrying no quality at all — are ignored, which is precisely
// the CQM integration the paper proposes for improving the camera's
// decision.
type Camera struct {
	// Name identifies the camera on the bus. Default "whiteboard-camera".
	Name string
	// UseQuality enables CQM filtering of incoming events.
	UseQuality bool
	// MinQuality is the acceptance threshold s when UseQuality is set.
	MinQuality float64
	// DebounceWindows is the number of consecutive agreeing events needed
	// before the camera believes a context switch. Default 1 (trust every
	// event); 2 reproduces a cautious appliance.
	DebounceWindows int
	// FallbackTimeout, when positive, is the graceful-degradation policy
	// for a silent or partitioned pen: if the camera believes writing is in
	// progress and hears nothing for this many virtual seconds, it assumes
	// the session ended, takes a fallback snapshot, and resets to an
	// unknown context. 0 disables the policy.
	FallbackTimeout float64
	// Tracer, when non-nil, records the fusion and decision stages of
	// sampled pipeline traces. Nil disables tracing at zero cost.
	Tracer *quality.Tracer

	current   sensor.Context
	pending   sensor.Context
	pendCount int
	writing   bool
	snapshots []Snapshot
	ignored   int
	accepted  int
	fallbacks int
	seen      seqDedup
	duplicate int
	sim       *Simulation
	watchGen  int
	met       cameraMetrics
}

// cameraMetrics are the camera's pre-resolved counters; nil fields are
// no-ops.
type cameraMetrics struct {
	accepted   *obs.Counter
	ignored    *obs.Counter
	duplicates *obs.Counter
	snapshots  *obs.Counter
	fallbacks  *obs.Counter
}

// Instrument registers the camera's decision and snapshot counters on
// reg; a nil registry turns instrumentation off.
func (c *Camera) Instrument(reg *obs.Registry) {
	if reg == nil {
		c.met = cameraMetrics{}
		return
	}
	reg.Help(MetricCameraDecisions, "Camera event handling by decision.")
	reg.Help(MetricCameraSnapshots, "Whiteboard pictures taken.")
	reg.Help(MetricCameraFallbacks, "Timeout-triggered fallback snapshots.")
	name := c.name()
	c.met = cameraMetrics{
		accepted:   reg.Counter(MetricCameraDecisions, "camera", name, "decision", "accept"),
		ignored:    reg.Counter(MetricCameraDecisions, "camera", name, "decision", "ignore"),
		duplicates: reg.Counter(MetricCameraDecisions, "camera", name, "decision", "duplicate"),
		snapshots:  reg.Counter(MetricCameraSnapshots, "camera", name),
		fallbacks:  reg.Counter(MetricCameraFallbacks, "camera", name),
	}
}

// Attach subscribes the camera to the bus.
func (c *Camera) Attach(bus *Bus) {
	c.sim = bus.sim
	bus.Subscribe(c.name(), c.handle)
}

// handle consumes one context event.
func (c *Camera) handle(ev Event) {
	// Duplicate suppression by publisher sequence number, keyed by
	// (source, seq) so two publishers sharing a sequence number never
	// collide, with a wraparound-aware sliding window bounding the state.
	if c.seen.Seen(ev.Source, ev.Seq) {
		c.duplicate++
		c.met.duplicates.Inc()
		c.decideTrace(ev, "duplicate")
		return
	}
	c.Tracer.Record(ev.Seq, quality.StageFuse, c.now(), c.name())

	if c.UseQuality {
		if !ev.HasQuality || ev.Quality <= c.MinQuality {
			c.ignored++
			c.met.ignored.Inc()
			c.decideTrace(ev, "ignore")
			return
		}
	}
	c.accepted++
	c.met.accepted.Inc()

	debounce := c.DebounceWindows
	if debounce < 1 {
		debounce = 1
	}
	if ev.Context != c.pending {
		c.pending = ev.Context
		c.pendCount = 0
	}
	c.pendCount++
	if c.pendCount < debounce {
		c.decideTrace(ev, "accept")
		c.armFallback(ev)
		return
	}
	next := c.pending
	if next == c.current {
		c.decideTrace(ev, "accept")
		c.armFallback(ev)
		return
	}
	// Believed context switch.
	if c.writing && next != sensor.ContextWriting {
		c.snapshots = append(c.snapshots, Snapshot{At: ev.Sent, TriggeredBy: ev})
		c.met.snapshots.Inc()
		c.decideTrace(ev, "snapshot")
	} else {
		c.decideTrace(ev, "switch")
	}
	c.current = next
	c.writing = next == sensor.ContextWriting
	c.armFallback(ev)
}

// now returns the camera's virtual time (0 before Attach).
func (c *Camera) now() float64 {
	if c.sim == nil {
		return 0
	}
	return c.sim.Now()
}

// decideTrace records the decision stage of a sampled pipeline trace.
func (c *Camera) decideTrace(ev Event, decision string) {
	c.Tracer.Record(ev.Seq, quality.StageDecide, c.now(), c.name()+":"+decision)
}

// armFallback (re)starts the silence watchdog after an accepted event:
// when writing is believed in progress and no newer accepted event arrives
// within FallbackTimeout, the camera assumes the session ended and takes a
// fallback snapshot. Every accepted event bumps the generation, cancelling
// older watchdogs.
func (c *Camera) armFallback(last Event) {
	c.watchGen++
	if c.FallbackTimeout <= 0 || c.sim == nil || !c.writing {
		return
	}
	gen := c.watchGen
	at := c.sim.Now() + c.FallbackTimeout
	// The deadline is in the future, so scheduling cannot fail.
	_ = c.sim.Schedule(at, func() {
		if gen != c.watchGen || !c.writing {
			return
		}
		c.snapshots = append(c.snapshots, Snapshot{At: at, TriggeredBy: last, Fallback: true})
		c.fallbacks++
		c.met.snapshots.Inc()
		c.met.fallbacks.Inc()
		c.current = sensor.ContextUnknown
		c.writing = false
	})
}

// Snapshots returns the pictures taken so far.
func (c *Camera) Snapshots() []Snapshot {
	out := make([]Snapshot, len(c.snapshots))
	copy(out, c.snapshots)
	return out
}

// Ignored returns the number of events rejected by the quality filter.
func (c *Camera) Ignored() int { return c.ignored }

// Accepted returns the number of events that passed duplicate suppression
// and the quality filter.
func (c *Camera) Accepted() int { return c.accepted }

// Fallbacks returns the number of timeout-triggered fallback snapshots.
func (c *Camera) Fallbacks() int { return c.fallbacks }

// Duplicates returns the number of duplicate deliveries suppressed.
//
//lint:ignore unused the camera dedup tests and FuzzBusDeliver probe the camera with it
func (c *Camera) Duplicates() int { return c.duplicate }

func (c *Camera) name() string {
	if c.Name == "" {
		return "whiteboard-camera"
	}
	return c.Name
}

// SnapshotScore compares taken snapshots against the true end-of-writing
// times of a scenario. A snapshot within tolerance of a truth is a hit;
// the rest are spurious. Each truth counts at most once.
type SnapshotScore struct {
	Truths   int
	Hits     int
	Spurious int
}

// Precision returns hits / (hits + spurious), or 0 with no snapshots.
func (s SnapshotScore) Precision() float64 {
	total := s.Hits + s.Spurious
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Recall returns hits / truths, or 0 with no truths.
func (s SnapshotScore) Recall() float64 {
	if s.Truths == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Truths)
}

// ScoreSnapshots matches snapshots to true end-of-writing times.
func ScoreSnapshots(snaps []Snapshot, truths []float64, tolerance float64) SnapshotScore {
	score := SnapshotScore{Truths: len(truths)}
	used := make([]bool, len(truths))
	for _, snap := range snaps {
		matched := false
		for i, truth := range truths {
			if used[i] {
				continue
			}
			if math.Abs(snap.At-truth) <= tolerance {
				used[i] = true
				matched = true
				break
			}
		}
		if matched {
			score.Hits++
		} else {
			score.Spurious++
		}
	}
	return score
}

// EndOfWritingTimes extracts the true end-of-writing instants from a
// labelled recording: times where ground truth leaves ContextWriting.
func EndOfWritingTimes(readings []sensor.Reading) []float64 {
	var out []float64
	for i := 1; i < len(readings); i++ {
		if readings[i-1].Truth == sensor.ContextWriting && readings[i].Truth != sensor.ContextWriting {
			out = append(out, readings[i].T)
		}
	}
	return out
}
