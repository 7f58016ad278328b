package feature

import (
	"math"

	"cqm/internal/sensor"
)

// DominantFreq extracts the per-axis dominant frequency in Hz — a
// frequency-domain cue separating writing's fast strokes (~5 Hz) from
// playing's slow swings (~1–2 Hz), which amplitude cues alone cannot
// always tell apart. The sample rate is inferred from the window's
// timestamps.
type DominantFreq struct {
	// MaxHz bounds the analysis band. Default 12 (well above any pen
	// motion, well below the Nyquist of the default 100 Hz sampling).
	MaxHz float64
}

// Name returns "domfreq".
func (DominantFreq) Name() string { return "domfreq" }

// Extract returns the per-axis frequency with the largest DFT magnitude
// within (0, MaxHz]. The DC bin is excluded: gravity dominates it.
func (d DominantFreq) Extract(window []sensor.Reading) ([]float64, error) {
	var buf [3 * axisStack]float64
	xs, ys, zs, err := axes(window, buf[:])
	if err != nil {
		return nil, err
	}
	if len(window) < 4 {
		return []float64{0, 0, 0}, nil
	}
	duration := window[len(window)-1].T - window[0].T
	if duration <= 0 {
		return []float64{0, 0, 0}, nil
	}
	sampleRate := float64(len(window)-1) / duration
	maxHz := d.MaxHz
	if maxHz == 0 {
		maxHz = 12
	}
	if nyquist := sampleRate / 2; maxHz > nyquist {
		maxHz = nyquist
	}
	return []float64{
		dominantFrequency(xs, sampleRate, maxHz),
		dominantFrequency(ys, sampleRate, maxHz),
		dominantFrequency(zs, sampleRate, maxHz),
	}, nil
}

// dominantFrequency scans DFT bins 1..k_max for the largest magnitude.
// The naive O(n·k) transform is fine: windows are ~100 samples and the
// band of interest a dozen bins.
func dominantFrequency(signal []float64, sampleRate, maxHz float64) float64 {
	n := len(signal)
	mean := 0.0
	for _, v := range signal {
		mean += v
	}
	mean /= float64(n)

	binHz := sampleRate / float64(n)
	kMax := int(maxHz / binHz)
	if kMax >= n/2 {
		kMax = n/2 - 1
	}
	if kMax < 1 {
		return 0
	}
	bestK, bestMag := 0, -1.0
	for k := 1; k <= kMax; k++ {
		var re, im float64
		for i, v := range signal {
			angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			centered := v - mean
			re += centered * math.Cos(angle)
			im += centered * math.Sin(angle)
		}
		if mag := re*re + im*im; mag > bestMag {
			bestK, bestMag = k, mag
		}
	}
	return float64(bestK) * binHz
}

// Compile-time interface check.
var _ Extractor = DominantFreq{}
