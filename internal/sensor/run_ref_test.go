package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceRun is the Scenario.Run that recorded each segment into its own
// slice and appended it to a growing buffer, frozen here as the
// differential oracle: Run must return the same readings, bit for bit.
func referenceRun(s *Scenario, rng *rand.Rand) ([]Reading, error) {
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

	var out []Reading
	offset := 0.0
	for i, seg := range s.Segments {
		model := NewModel(seg.Context, s.Style)
		var blend blendSpec
		if i+1 < len(s.Segments) {
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
		readings, err := referenceRecord(acc, &blendModel{
			base:  model,
			blend: blend,
		}, seg.Context, seg.Duration, rng)
		if err != nil {
			return nil, fmt.Errorf("sensor: segment %d: %w", i, err)
		}
		for k := range readings {
			if blend.active && readings[k].T > blend.start+blend.len/2 {
				readings[k].Truth = blend.nextC
			}
			readings[k].T += offset
		}
		out = append(out, readings...)
		offset += seg.Duration
	}
	return out, nil
}

// referenceRecord is the Accelerometer.Record body referenceRun called.
func referenceRecord(a Accelerometer, model MotionModel, truth Context, duration float64, rng *rand.Rand) ([]Reading, error) {
	a = a.withDefaults()
	if err := a.validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("%w for context %v", ErrNoModel, truth)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("%w: duration %v", ErrBadConfig, duration)
	}
	n := int(duration * a.SampleRate)
	if n < 1 {
		n = 1
	}
	dt := 1 / a.SampleRate
	driftStep := a.DriftRate * math.Sqrt(dt)
	var driftX, driftY, driftZ float64
	out := make([]Reading, n)
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		true3 := model.Accelerate(t, rng)
		driftX += driftStep * rng.NormFloat64()
		driftY += driftStep * rng.NormFloat64()
		driftZ += driftStep * rng.NormFloat64()
		out[i] = Reading{
			T:     t,
			Truth: truth,
			Accel: Accel{
				X: a.digitize(true3.X + driftX + a.NoiseSigma*rng.NormFloat64()),
				Y: a.digitize(true3.Y + driftY + a.NoiseSigma*rng.NormFloat64()),
				Z: a.digitize(true3.Z + driftZ + a.NoiseSigma*rng.NormFloat64()),
			},
		}
	}
	return out, nil
}

// fuzzScenario decodes a scenario from fuzz bytes: each segment takes two
// bytes, a context (0 is ContextUnknown, which both sides must refuse)
// and a duration in tenths of a second, so very short segments, segments
// shorter than the transition and fractional sample counts all occur.
func fuzzScenario(segs []byte, amp, tempo, irregular, transition, rate uint8) *Scenario {
	s := &Scenario{
		Style: Style{
			Amplitude:    float64(amp) / 64,
			Tempo:        float64(tempo) / 64,
			Irregularity: float64(irregular) / 200,
		},
		Transition: float64(transition) / 100,
		Sensor:     Accelerometer{SampleRate: float64(rate)},
	}
	for i := 0; i+1 < len(segs) && len(s.Segments) < 8; i += 2 {
		s.Segments = append(s.Segments, Segment{
			Context:  Context(segs[i] % 4),
			Duration: float64(segs[i+1]) / 10,
		})
	}
	return s
}

// sameReadings reports whether got and want hold the same readings, with
// every float compared by its bits.
func sameReadings(got, want []Reading) bool {
	if len(got) != len(want) {
		return false
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if bits(g.T) != bits(w.T) || g.Truth != w.Truth ||
			bits(g.Accel.X) != bits(w.Accel.X) || bits(g.Accel.Y) != bits(w.Accel.Y) || bits(g.Accel.Z) != bits(w.Accel.Z) {
			return false
		}
	}
	return true
}

// FuzzScenarioRunDifferential checks Scenario.Run against referenceRun bit
// for bit on fuzz-chosen segment lists, durations, contexts, styles,
// transitions, sample rates and seeds, and checks that both refuse the
// same invalid scripts. The seeds include the sessions TrainQuickModel
// records.
func FuzzScenarioRunDifferential(f *testing.F) {
	f.Add([]byte{1, 120, 2, 120, 3, 120}, uint8(64), uint8(64), uint8(40), uint8(0), uint8(0), int64(1))
	f.Add([]byte{2, 80, 3, 40, 2, 80, 1, 60}, uint8(166), uint8(90), uint8(180), uint8(0), uint8(0), int64(2))
	f.Add([]byte{3, 1, 1, 3, 2, 7}, uint8(0), uint8(0), uint8(255), uint8(250), uint8(37), int64(-5))
	f.Add([]byte{0, 10}, uint8(64), uint8(64), uint8(0), uint8(60), uint8(100), int64(3))
	f.Add([]byte{1, 0, 2, 10}, uint8(64), uint8(64), uint8(0), uint8(60), uint8(100), int64(4))
	f.Add([]byte{}, uint8(64), uint8(64), uint8(0), uint8(60), uint8(100), int64(5))
	f.Fuzz(func(t *testing.T, segs []byte, amp, tempo, irregular, transition, rate uint8, seed int64) {
		s := fuzzScenario(segs, amp, tempo, irregular, transition, rate)
		got, gotErr := s.Run(rand.New(rand.NewSource(seed)))
		want, wantErr := referenceRun(s, rand.New(rand.NewSource(seed)))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v: err = %v, want %v", s, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%+v: err = %q, want %q", s, gotErr, wantErr)
			}
			return
		}
		if !sameReadings(got, want) {
			t.Fatalf("%+v seed %d: readings differ from the reference (%d vs %d)", s, seed, len(got), len(want))
		}
	})
}
