package sensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Sensing errors.
var (
	// ErrBadConfig reports an invalid accelerometer configuration.
	ErrBadConfig = errors.New("sensor: invalid configuration")
	// ErrNoModel reports recording with a nil motion model (e.g. an
	// unknown context).
	ErrNoModel = errors.New("sensor: no motion model")
)

// Accelerometer models the ADXL-style 3-axis sensor on the Particle
// Computer node: additive white noise, slow offset drift, saturation at
// the measurement range, and ADC quantization.
type Accelerometer struct {
	// SampleRate in Hz. Default 100 (Particle node sampling the paper's
	// era hardware comfortably sustains).
	SampleRate float64
	// NoiseSigma is the white-noise standard deviation in g. Default 0.01.
	NoiseSigma float64
	// DriftRate is the per-second standard deviation of the random-walk
	// offset drift in g. Default 0.001.
	DriftRate float64
	// RangeG saturates measurements at ±RangeG. Default 2 (ADXL202-like).
	RangeG float64
	// Bits is the ADC resolution; readings quantize to 2^Bits steps over
	// the full range. Default 10. Negative disables quantization.
	Bits int
}

// withDefaults fills zero fields with hardware-plausible defaults.
func (a Accelerometer) withDefaults() Accelerometer {
	if a.SampleRate == 0 {
		a.SampleRate = 100
	}
	if a.NoiseSigma == 0 {
		a.NoiseSigma = 0.01
	}
	if a.DriftRate == 0 {
		a.DriftRate = 0.001
	}
	if a.RangeG == 0 {
		a.RangeG = 2
	}
	if a.Bits == 0 {
		a.Bits = 10
	}
	return a
}

func (a Accelerometer) validate() error {
	switch {
	case a.SampleRate <= 0:
		return fmt.Errorf("%w: sample rate %v", ErrBadConfig, a.SampleRate)
	case a.NoiseSigma < 0:
		return fmt.Errorf("%w: noise sigma %v", ErrBadConfig, a.NoiseSigma)
	case a.DriftRate < 0:
		return fmt.Errorf("%w: drift rate %v", ErrBadConfig, a.DriftRate)
	case a.RangeG <= 0:
		return fmt.Errorf("%w: range %v g", ErrBadConfig, a.RangeG)
	default:
		return nil
	}
}

// Reading is one time-stamped, labelled accelerometer sample.
type Reading struct {
	// T is the sample time in seconds from recording start.
	T float64
	// Accel is the measured (noisy, quantized) acceleration.
	Accel Accel
	// Truth is the ground-truth context active when the sample was taken.
	Truth Context
}

// Record samples the motion model for the given duration. The returned
// readings carry the context label as ground truth.
func (a Accelerometer) Record(model MotionModel, truth Context, duration float64, rng *rand.Rand) ([]Reading, error) {
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
	out := make([]Reading, a.samples(duration))
	a.record(out, model, truth, rng)
	return out, nil
}

// samples returns the number of readings a recording of duration seconds
// takes: at least one.
func (a Accelerometer) samples(duration float64) int {
	return max(int(duration*a.SampleRate), 1)
}

// record fills out with consecutive samples of the motion model from time
// 0. a must have its defaults applied and be valid.
func (a Accelerometer) record(out []Reading, model MotionModel, truth Context, rng *rand.Rand) {
	dt := 1 / a.SampleRate
	driftStep := a.DriftRate * math.Sqrt(dt)
	var driftX, driftY, driftZ float64
	for i := range out {
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
}

// digitize applies saturation and ADC quantization.
func (a Accelerometer) digitize(v float64) float64 {
	if v > a.RangeG {
		v = a.RangeG
	}
	if v < -a.RangeG {
		v = -a.RangeG
	}
	if a.Bits < 0 {
		return v
	}
	steps := math.Ldexp(1, a.Bits)
	lsb := 2 * a.RangeG / steps
	return math.Round(v/lsb) * lsb
}
