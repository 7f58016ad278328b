package sensor

import (
	"fmt"
	"math/rand"
)

// Segment is one scripted phase of a scenario: the pen is in the given
// context for Duration seconds.
type Segment struct {
	Context  Context
	Duration float64
}

// Scenario scripts a recording session: a sequence of context segments
// joined by gradual transitions, recorded by one accelerometer for one
// user style.
type Scenario struct {
	// Segments in playback order; at least one is required.
	Segments []Segment
	// Style is the user's movement style; the zero value is normalized to
	// the nominal user.
	Style Style
	// Transition is the blend time in seconds between consecutive
	// segments during which the old and new motion overlap. These windows
	// are exactly where the paper reports low classification quality.
	// Default 0.6.
	Transition float64
	// Sensor is the accelerometer configuration (zero value = defaults).
	Sensor Accelerometer
}

// validate applies defaults and checks the script.
func (s *Scenario) validate() error {
	if len(s.Segments) == 0 {
		return fmt.Errorf("%w: scenario without segments", ErrBadConfig)
	}
	for i, seg := range s.Segments {
		if seg.Duration <= 0 {
			return fmt.Errorf("%w: segment %d duration %v", ErrBadConfig, i, seg.Duration)
		}
		if NewModel(seg.Context, s.Style) == nil {
			return fmt.Errorf("%w: segment %d context %v", ErrNoModel, i, seg.Context)
		}
	}
	if s.Transition < 0 {
		return fmt.Errorf("%w: transition %v", ErrBadConfig, s.Transition)
	}
	return nil
}

// Run records the scripted session. Within a transition the outgoing and
// incoming motions are cross-faded; ground truth switches at the blend
// midpoint, so windows covering a transition genuinely mix both motions —
// the ambiguity the quality measure must detect.
func (s *Scenario) Run(rng *rand.Rand) ([]Reading, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	transition := s.Transition
	if transition == 0 {
		transition = 0.6
	}
	acc := s.Sensor.withDefaults()
	if err := acc.validate(); err != nil {
		return nil, err
	}

	total := 0
	for _, seg := range s.Segments {
		total += acc.samples(seg.Duration)
	}
	out := make([]Reading, total)
	rest := out
	offset := 0.0
	for i, seg := range s.Segments {
		model := NewModel(seg.Context, s.Style)
		var blend blendSpec
		if i+1 < len(s.Segments) {
			// Blend into the next segment over the final `transition`
			// seconds of this one.
			bl := transition
			if bl > seg.Duration/2 {
				bl = seg.Duration / 2
			}
			blend = blendSpec{
				active: true,
				start:  seg.Duration - bl,
				len:    bl,
				next:   NewModel(s.Segments[i+1].Context, s.Style),
				nextC:  s.Segments[i+1].Context,
			}
		}
		readings := rest[:acc.samples(seg.Duration)]
		rest = rest[len(readings):]
		acc.record(readings, &blendModel{
			base:  model,
			blend: blend,
		}, seg.Context, rng)
		// Re-stamp times and flip ground truth past the blend midpoint.
		for k := range readings {
			if blend.active && readings[k].T > blend.start+blend.len/2 {
				readings[k].Truth = blend.nextC
			}
			readings[k].T += offset
		}
		offset += seg.Duration
	}
	return out, nil
}

// blendSpec describes the cross-fade at the end of a segment.
type blendSpec struct {
	active bool
	start  float64 // segment-local time the fade begins
	len    float64
	next   MotionModel
	nextC  Context
}

// blendModel wraps a segment's model and cross-fades into the next one.
type blendModel struct {
	base  MotionModel
	blend blendSpec
}

// Accelerate mixes base and next motion linearly across the fade window.
func (b *blendModel) Accelerate(t float64, rng *rand.Rand) Accel {
	a := b.base.Accelerate(t, rng)
	if !b.blend.active || t < b.blend.start || b.blend.len <= 0 {
		return a
	}
	w := (t - b.blend.start) / b.blend.len
	if w > 1 {
		w = 1
	}
	n := b.blend.next.Accelerate(t, rng)
	return Accel{
		X: (1-w)*a.X + w*n.X,
		Y: (1-w)*a.Y + w*n.Y,
		Z: (1-w)*a.Z + w*n.Z,
	}
}

// OfficeSession returns the canonical AwareOffice scenario from the
// paper's motivation: writing on the board, pausing to think while
// playing with the pen, continuing to write, then putting the pen down.
func OfficeSession(style Style) *Scenario {
	return &Scenario{
		Segments: []Segment{
			{Context: ContextWriting, Duration: 8},
			{Context: ContextPlaying, Duration: 4},
			{Context: ContextWriting, Duration: 8},
			{Context: ContextLying, Duration: 6},
		},
		Style: style,
	}
}
