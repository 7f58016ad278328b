// Package feature turns raw accelerometer streams into the cue vectors the
// classifier and the quality FIS consume (paper §2.1: "Each cue represents
// a single sensor. Cues are computed from sensor data and identify basic
// features for the context classification").
//
// The AwarePen's cue set is the per-axis standard deviation over a sliding
// window (paper §3.1); additional extractors (mean, RMS, range, zero
// crossings, energy) are available for the extended experiments.
package feature

import (
	"errors"
	"fmt"

	"cqm/internal/sensor"
	"cqm/internal/stat"
)

// Extraction errors.
var (
	// ErrEmptyWindow reports extraction over a window without samples.
	ErrEmptyWindow = errors.New("feature: empty window")
	// ErrBadWindow reports invalid windowing parameters.
	ErrBadWindow = errors.New("feature: invalid window parameters")
)

// Extractor computes one cue per axis from a window of readings.
type Extractor interface {
	// Name identifies the extractor in reports.
	Name() string
	// Extract returns the per-axis cues (x, y, z order).
	Extract(window []sensor.Reading) ([]float64, error)
}

// axisStack is the window length up to which an extractor splits its
// window into per-axis series on its own stack; a longer window takes one
// heap buffer.
const axisStack = 128

// axes splits a window into per-axis series stored in buf, or in one new
// buffer when buf holds fewer than 3·len(window) values.
func axes(window []sensor.Reading, buf []float64) (xs, ys, zs []float64, err error) {
	n := len(window)
	if n == 0 {
		return nil, nil, nil, ErrEmptyWindow
	}
	if len(buf) < 3*n {
		buf = make([]float64, 3*n)
	}
	xs, ys, zs = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	for i, r := range window {
		xs[i] = r.Accel.X
		ys[i] = r.Accel.Y
		zs[i] = r.Accel.Z
	}
	return xs, ys, zs, nil
}

// StdDev is the paper's cue: population standard deviation per axis.
type StdDev struct{}

// Name returns "stddev".
func (StdDev) Name() string { return "stddev" }

// Extract returns the per-axis standard deviations.
func (StdDev) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	return []float64{stat.PopStdDev(xs), stat.PopStdDev(ys), stat.PopStdDev(zs)}, nil
}

// Mean extracts the per-axis mean — mostly gravity orientation.
type Mean struct{}

// Name returns "mean".
func (Mean) Name() string { return "mean" }

// Extract returns the per-axis means.
func (Mean) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	return []float64{stat.Mean(xs), stat.Mean(ys), stat.Mean(zs)}, nil
}

// RMS extracts per-axis root-mean-square energy.
type RMS struct{}

// Name returns "rms".
func (RMS) Name() string { return "rms" }

// Extract returns the per-axis RMS values.
func (RMS) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	return []float64{stat.RMS(xs), stat.RMS(ys), stat.RMS(zs)}, nil
}

// Range extracts the per-axis peak-to-peak amplitude.
type Range struct{}

// Name returns "range".
func (Range) Name() string { return "range" }

// Extract returns the per-axis max−min spans.
func (Range) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	span := func(v []float64) float64 {
		min, max := stat.MinMax(v)
		return max - min
	}
	return []float64{span(xs), span(ys), span(zs)}, nil
}

// ZeroCross extracts the per-axis mean-crossing rate — a cheap frequency
// cue that separates writing's fast strokes from playing's slow swings.
type ZeroCross struct{}

// Name returns "zerocross".
func (ZeroCross) Name() string { return "zerocross" }

// Extract returns the per-axis crossing counts normalized by window length.
func (ZeroCross) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	n := float64(len(window))
	return []float64{
		float64(stat.ZeroCrossings(xs)) / n,
		float64(stat.ZeroCrossings(ys)) / n,
		float64(stat.ZeroCrossings(zs)) / n,
	}, nil
}

// Compile-time interface checks.
var (
	_ Extractor = StdDev{}
	_ Extractor = Mean{}
	_ Extractor = RMS{}
	_ Extractor = Range{}
	_ Extractor = ZeroCross{}
)

// Pipeline combines several extractors into one cue vector per window.
type Pipeline struct {
	extractors []Extractor
}

// NewPipeline returns a pipeline over the given extractors; with none it
// defaults to the paper's StdDev cues.
func NewPipeline(extractors ...Extractor) *Pipeline {
	if len(extractors) == 0 {
		extractors = []Extractor{StdDev{}}
	}
	return &Pipeline{extractors: extractors}
}

// Cues returns the concatenated cues of all extractors for the window.
func (p *Pipeline) Cues(window []sensor.Reading) ([]float64, error) {
	var out []float64
	for _, e := range p.extractors {
		cues, err := e.Extract(window)
		if err != nil {
			return nil, fmt.Errorf("feature: %s: %w", e.Name(), err)
		}
		out = append(out, cues...)
	}
	return out, nil
}

// Dim returns the cue vector length the pipeline produces (3 per
// extractor).
func (p *Pipeline) Dim() int { return 3 * len(p.extractors) }
