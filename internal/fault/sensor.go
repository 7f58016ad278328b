package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"cqm/internal/obs"
	"cqm/internal/sensor"
)

// Fault-model errors.
var (
	// ErrBadFault reports an invalid fault configuration.
	ErrBadFault = errors.New("fault: invalid fault configuration")
)

// Axis identifiers for axis-scoped sensor faults.
const (
	// AxisX selects the accelerometer's X axis.
	AxisX = 0
	// AxisY selects the accelerometer's Y axis.
	AxisY = 1
	// AxisZ selects the accelerometer's Z axis.
	AxisZ = 2
)

// SensorFault perturbs a recorded accelerometer stream. Apply returns the
// perturbed readings (the input is never mutated) together with the number
// of samples the fault touched; all randomness flows through rng.
type SensorFault interface {
	// Name identifies the fault class in metrics and reports.
	Name() string
	// Apply returns the perturbed copy of readings and the number of
	// affected samples.
	Apply(readings []sensor.Reading, rng *rand.Rand) ([]sensor.Reading, error)
	// Affected returns the number of samples the most recent Apply touched.
	Affected() int
}

// StuckAxis freezes one axis at the value it held when the fault began —
// the classic stuck-at sensor failure. Start is measured in seconds from
// the first reading; a Duration of 0 holds the axis to the end of the
// recording.
type StuckAxis struct {
	// Axis is the frozen axis (AxisX, AxisY, or AxisZ).
	Axis int
	// Start is the fault onset in seconds after the first reading.
	Start float64
	// Duration is the fault length in seconds; 0 means until the end.
	Duration float64

	affected int
}

// Name returns "stuck-axis".
func (f *StuckAxis) Name() string { return "stuck-axis" }

// Affected returns the number of samples the most recent Apply touched.
func (f *StuckAxis) Affected() int { return f.affected }

// Apply freezes the configured axis over the fault interval.
func (f *StuckAxis) Apply(readings []sensor.Reading, _ *rand.Rand) ([]sensor.Reading, error) {
	if f.Axis < AxisX || f.Axis > AxisZ {
		return nil, fmt.Errorf("%w: stuck axis %d", ErrBadFault, f.Axis)
	}
	if f.Start < 0 || f.Duration < 0 {
		return nil, fmt.Errorf("%w: stuck start %v duration %v", ErrBadFault, f.Start, f.Duration)
	}
	out := cloneReadings(readings)
	f.affected = 0
	if len(out) == 0 {
		return out, nil
	}
	from := out[0].T + f.Start
	to := from + f.Duration
	var held float64
	holding := false
	for i := range out {
		t := out[i].T
		if t < from || (f.Duration > 0 && t >= to) {
			continue
		}
		if !holding {
			held = axisValue(out[i].Accel, f.Axis)
			holding = true
		}
		setAxis(&out[i].Accel, f.Axis, held)
		f.affected++
	}
	return out, nil
}

// Saturation scales the whole stream by Gain and clips it at ±Limit —
// an analog front end driven past its measurement range, producing the
// flat-topped plateaus real over-range recordings show.
type Saturation struct {
	// Gain multiplies every sample before clipping. Default 1.
	Gain float64
	// Limit is the clipping rail in g. Default 2 (the accelerometer's
	// default RangeG).
	Limit float64

	affected int
}

// Name returns "saturation".
func (f *Saturation) Name() string { return "saturation" }

// Affected returns the number of samples the most recent Apply clipped.
func (f *Saturation) Affected() int { return f.affected }

// Apply scales and clips every sample; affected counts clipped samples.
func (f *Saturation) Apply(readings []sensor.Reading, _ *rand.Rand) ([]sensor.Reading, error) {
	gain := f.Gain
	if gain == 0 {
		gain = 1
	}
	limit := f.Limit
	if limit == 0 {
		limit = 2
	}
	if gain < 0 || limit < 0 {
		return nil, fmt.Errorf("%w: saturation gain %v limit %v", ErrBadFault, gain, limit)
	}
	out := cloneReadings(readings)
	f.affected = 0
	for i := range out {
		clipped := false
		for axis := AxisX; axis <= AxisZ; axis++ {
			v, c := clip(gain*axisValue(out[i].Accel, axis), limit)
			setAxis(&out[i].Accel, axis, v)
			clipped = clipped || c
		}
		if clipped {
			f.affected++
		}
	}
	return out, nil
}

// Dropout removes every sample in [Start, Start+Duration) — a sensing or
// sampling outage that leaves a gap in the stream. Start is measured in
// seconds from the first reading.
type Dropout struct {
	// Start is the gap onset in seconds after the first reading.
	Start float64
	// Duration is the gap length in seconds.
	Duration float64

	affected int
}

// Name returns "dropout".
func (f *Dropout) Name() string { return "dropout" }

// Affected returns the number of samples the most recent Apply removed.
func (f *Dropout) Affected() int { return f.affected }

// Apply removes the samples inside the gap.
func (f *Dropout) Apply(readings []sensor.Reading, _ *rand.Rand) ([]sensor.Reading, error) {
	if f.Start < 0 || f.Duration <= 0 {
		return nil, fmt.Errorf("%w: dropout start %v duration %v", ErrBadFault, f.Start, f.Duration)
	}
	f.affected = 0
	if len(readings) == 0 {
		return cloneReadings(readings), nil
	}
	from := readings[0].T + f.Start
	to := from + f.Duration
	out := make([]sensor.Reading, 0, len(readings))
	for _, r := range readings {
		if r.T >= from && r.T < to {
			f.affected++
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// SpikeNoise adds impulsive noise: each sample is independently hit with
// probability Prob, adding ±Amplitude (random sign) before clipping at
// ±Limit — electrical glitches and mechanical shocks.
type SpikeNoise struct {
	// Prob is the per-sample spike probability.
	Prob float64
	// Amplitude is the spike magnitude in g. Default 3.
	Amplitude float64
	// Limit clips the spiked value at ±Limit. Default 2.
	Limit float64

	affected int
}

// Name returns "spike".
func (f *SpikeNoise) Name() string { return "spike" }

// Affected returns the number of samples the most recent Apply spiked.
func (f *SpikeNoise) Affected() int { return f.affected }

// Apply draws one uniform variate per sample (and one sign per spike), so
// the schedule is a pure function of the RNG stream.
func (f *SpikeNoise) Apply(readings []sensor.Reading, rng *rand.Rand) ([]sensor.Reading, error) {
	if f.Prob < 0 || f.Prob > 1 {
		return nil, fmt.Errorf("%w: spike probability %v", ErrBadFault, f.Prob)
	}
	amp := f.Amplitude
	if amp == 0 {
		amp = 3
	}
	limit := f.Limit
	if limit == 0 {
		limit = 2
	}
	if amp < 0 || limit < 0 {
		return nil, fmt.Errorf("%w: spike amplitude %v limit %v", ErrBadFault, amp, limit)
	}
	out := cloneReadings(readings)
	f.affected = 0
	for i := range out {
		if rng.Float64() >= f.Prob {
			continue
		}
		delta := amp
		if rng.Float64() < 0.5 {
			delta = -amp
		}
		for axis := AxisX; axis <= AxisZ; axis++ {
			v, _ := clip(axisValue(out[i].Accel, axis)+delta, limit)
			setAxis(&out[i].Accel, axis, v)
		}
		f.affected++
	}
	return out, nil
}

// ClockDrift stretches the time base: t' = t0 + (t−t0)·(1+Rate), the
// slow oscillator error of a cheap node whose samples arrive progressively
// late (positive Rate) or early (negative Rate).
type ClockDrift struct {
	// Rate is the fractional frequency error; 0.1 means every second of
	// real time is stamped as 1.1 s.
	Rate float64

	affected int
}

// Name returns "clock-drift".
func (f *ClockDrift) Name() string { return "clock-drift" }

// Affected returns the number of samples the most recent Apply re-stamped.
func (f *ClockDrift) Affected() int { return f.affected }

// Apply re-stamps every reading; the first keeps its original time.
func (f *ClockDrift) Apply(readings []sensor.Reading, _ *rand.Rand) ([]sensor.Reading, error) {
	if f.Rate <= -1 {
		return nil, fmt.Errorf("%w: clock drift rate %v", ErrBadFault, f.Rate)
	}
	out := cloneReadings(readings)
	f.affected = 0
	if len(out) == 0 {
		return out, nil
	}
	t0 := out[0].T
	for i := range out {
		out[i].T = t0 + (out[i].T-t0)*(1+f.Rate)
		f.affected++
	}
	return out, nil
}

// MetricInjected counts samples touched by injected sensor faults, per
// fault class.
const MetricInjected = "fault_injected_samples_total"

// Injector applies a fixed schedule of sensor faults to recordings. All
// randomness derives from the seed given at construction, so the same
// injector configuration perturbs the same recording identically on every
// run — the determinism contract the fault sweeps rely on.
type Injector struct {
	rng    *rand.Rand
	faults []SensorFault
	counts map[string]int
	met    map[string]*obs.Counter
}

// NewInjector returns an injector applying the faults in order, drawing
// randomness from the given seed.
func NewInjector(seed int64, faults ...SensorFault) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		faults: faults,
		counts: make(map[string]int),
	}
}

// Instrument registers one injected-samples counter per fault class on
// reg; a nil registry turns instrumentation off.
//
//lint:ignore unused TestInjectorInstrumented checks Apply's counts against it
func (in *Injector) Instrument(reg *obs.Registry) {
	if reg == nil {
		in.met = nil
		return
	}
	reg.Help(MetricInjected, "Samples touched by injected sensor faults, by fault class.")
	in.met = make(map[string]*obs.Counter, len(in.faults))
	for _, f := range in.faults {
		if _, ok := in.met[f.Name()]; !ok {
			in.met[f.Name()] = reg.Counter(MetricInjected, "fault", f.Name())
		}
	}
}

// Apply runs the full fault schedule over the readings, accumulating the
// per-class injection counts.
func (in *Injector) Apply(readings []sensor.Reading) ([]sensor.Reading, error) {
	out := readings
	for _, f := range in.faults {
		var err error
		out, err = f.Apply(out, in.rng)
		if err != nil {
			return nil, err
		}
		in.counts[f.Name()] += f.Affected()
		if c, ok := in.met[f.Name()]; ok {
			c.Add(int64(f.Affected()))
		}
	}
	return out, nil
}

// Counts returns the cumulative injected-sample counts by fault class.
func (in *Injector) Counts() map[string]int {
	out := make(map[string]int, len(in.counts))
	for name, n := range in.counts {
		out[name] = n
	}
	return out
}

// Render summarizes the cumulative injection counts, sorted by class name.
func (in *Injector) Render() string {
	names := make([]string, 0, len(in.counts))
	for name := range in.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		out += fmt.Sprintf("  fault %-12s %d samples\n", name+":", in.counts[name])
	}
	return out
}

// cloneReadings copies the slice so fault application never mutates the
// caller's recording.
func cloneReadings(readings []sensor.Reading) []sensor.Reading {
	out := make([]sensor.Reading, len(readings))
	copy(out, readings)
	return out
}

// axisValue extracts one axis from an acceleration sample.
func axisValue(a sensor.Accel, axis int) float64 {
	switch axis {
	case AxisX:
		return a.X
	case AxisY:
		return a.Y
	default:
		return a.Z
	}
}

// setAxis writes one axis of an acceleration sample.
func setAxis(a *sensor.Accel, axis int, v float64) {
	switch axis {
	case AxisX:
		a.X = v
	case AxisY:
		a.Y = v
	default:
		a.Z = v
	}
}

// clip bounds v at ±limit, reporting whether it clipped.
func clip(v, limit float64) (float64, bool) {
	if v > limit {
		return limit, true
	}
	if v < -limit {
		return -limit, true
	}
	return v, false
}
