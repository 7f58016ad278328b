package quality

import (
	"math"

	"cqm/internal/stat"
)

// sample is one tracked scoring decision in a source's ring window.
type sample struct {
	at       float64
	q        float64
	hasQ     bool
	accepted bool
	degraded bool
}

// DriftEpoch records one Page–Hinkley alarm: when it fired (virtual time)
// and on which per-source observation.
type DriftEpoch struct {
	// At is the virtual time of the observation that fired the alarm.
	At float64 `json:"at"`
	// Index is the zero-based per-source observation index.
	Index int64 `json:"index"`
}

// maxDriftEpochs bounds the epochs retained per source for reporting.
const maxDriftEpochs = 32

// source is the per-source tracking state: a ring window of recent
// decisions with incrementally maintained windowed statistics, lifetime
// Welford statistics, and the drift detectors.
type source struct {
	// name is the source's map key, as triggers report it.
	name string

	// Ring window of the most recent samples. It fills in order from
	// ring[0], growing (source.grow) until it holds the engine's window;
	// once full, next is the oldest slot, the one overwritten first.
	// While it fills, next stays 0.
	ring []sample
	next int

	// Windowed aggregates, maintained in O(1) per observation by adding
	// the incoming sample and subtracting the evicted one. q ∈ [0,1], so
	// the running sums stay well-conditioned.
	wSum, wSum2               float64
	wWithQ, wAccept, wEpsilon int
	wDegraded                 int

	// Lifetime statistics over every q value this source ever produced.
	lifetime                                          stat.Online
	observed, accepted, discarded, epsilons, degraded int64
	firstAt, lastAt                                   float64

	// Drift detection.
	ph       PageHinkley
	phFired  int64
	phEpochs []DriftEpoch
	ks       KSResult
	// triggers counts lifetime detector firings (PH alarms plus new KS
	// drift onsets) — the events handed to the OnTrigger hook.
	triggers int64
}

// add folds one decision into the window of size window and the lifetime
// statistics and runs the Page–Hinkley detector; it reports whether PH
// fired.
func (s *source) add(sm sample, window int) bool {
	if s.observed == 0 {
		s.firstAt = sm.at
	}
	s.lastAt = sm.at
	index := s.observed
	s.observed++

	// Append while the window fills, growing the ring when it runs out of
	// room; once it is full, evict the oldest sample and overwrite its slot.
	if n := len(s.ring); n < window {
		if n == cap(s.ring) {
			s.grow(window)
		}
		s.ring = s.ring[:n+1]
		s.ring[n] = sm
	} else {
		old := s.ring[s.next]
		if old.hasQ {
			s.wSum -= old.q
			s.wSum2 -= old.q * old.q
			s.wWithQ--
		} else {
			s.wEpsilon--
		}
		if old.accepted {
			s.wAccept--
		}
		if old.degraded {
			s.wDegraded--
		}
		s.ring[s.next] = sm
		s.next++
		if s.next == n {
			s.next = 0
		}
	}

	if sm.hasQ {
		s.wSum += sm.q
		s.wSum2 += sm.q * sm.q
		s.wWithQ++
		s.lifetime.Add(sm.q)
	} else {
		s.wEpsilon++
		s.epsilons++
	}
	if sm.accepted {
		s.wAccept++
		s.accepted++
	} else if sm.hasQ {
		s.discarded++
	}
	if sm.degraded {
		s.wDegraded++
		s.degraded++
	}

	if !sm.hasQ {
		return false
	}
	if s.ph.Add(sm.q) {
		s.phFired++
		//lint:ignore hotpath-alloc drift epochs are rare alarm events, bounded by maxDriftEpochs
		s.phEpochs = append(s.phEpochs, DriftEpoch{At: sm.at, Index: index})
		if len(s.phEpochs) > maxDriftEpochs {
			s.phEpochs = s.phEpochs[len(s.phEpochs)-maxDriftEpochs:]
		}
		return true
	}
	return false
}

// windowMean returns the mean q over the current window (0 when no
// quality-carrying sample is present).
func (s *source) windowMean() float64 {
	if s.wWithQ == 0 {
		return 0
	}
	return s.wSum / float64(s.wWithQ)
}

// windowStdDev returns the population standard deviation of q over the
// current window.
func (s *source) windowStdDev() float64 {
	if s.wWithQ < 2 {
		return 0
	}
	mean := s.wSum / float64(s.wWithQ)
	v := s.wSum2/float64(s.wWithQ) - mean*mean
	if v < 0 {
		// Floating-point cancellation on near-constant windows.
		v = 0
	}
	return math.Sqrt(v)
}

// windowQs returns the quality values currently in the window, oldest
// first — the KS detector's live sample. It runs every KS.Every
// observations, so its allocation is stride-amortized.
//
//cqm:coldpath
func (s *source) windowQs() []float64 {
	out := make([]float64, 0, s.wWithQ)
	s.eachWindowed(func(sm sample) {
		if sm.hasQ {
			out = append(out, sm.q)
		}
	})
	return out
}

// velocity returns the degradation velocity: the ordinary-least-squares
// slope of q against virtual time over the window, in quality units per
// virtual second. Negative values mean declining quality. It is a pure
// function of the windowed samples in stream order, so it replays
// bit-identically.
func (s *source) velocity() float64 {
	if s.wWithQ < 2 {
		return 0
	}
	var sumT, sumQ float64
	nf := float64(s.wWithQ)
	s.eachWindowed(func(sm sample) {
		if sm.hasQ {
			sumT += sm.at
			sumQ += sm.q
		}
	})
	meanT, meanQ := sumT/nf, sumQ/nf
	var cov, varT float64
	s.eachWindowed(func(sm sample) {
		if sm.hasQ {
			dt := sm.at - meanT
			cov += dt * (sm.q - meanQ)
			varT += dt * dt
		}
	})
	if varT <= 0 {
		return 0
	}
	return cov / varT
}

// eachWindowed visits the windowed samples oldest first.
func (s *source) eachWindowed(fn func(sample)) {
	for _, sm := range s.ring[s.next:] {
		fn(sm)
	}
	for _, sm := range s.ring[:s.next] {
		fn(sm)
	}
}
