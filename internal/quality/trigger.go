package quality

// Trigger kinds. Each names the detector that fired.
const (
	// TriggerPH is a Page–Hinkley decline alarm on the q stream.
	TriggerPH = "drift-ph"
	// TriggerKS is a Kolmogorov–Smirnov departure of the live window from
	// the training-time right/wrong mixture.
	TriggerKS = "drift-ks"
)

// Trigger is one structured drift event: the machine-readable companion of
// the human-facing Alert, emitted synchronously from Engine.Observe the
// moment a detector fires. Consumers (the adaptation supervisor) branch on
// its typed fields instead of parsing Recommendation strings out of a
// report. Triggers are a pure function of the observation stream, so under
// virtual time they replay bit-identically.
type Trigger struct {
	// Source is the stream the detector fired on.
	Source string `json:"source"`
	// Kind is TriggerPH or TriggerKS.
	Kind string `json:"kind"`
	// Severity mirrors the alert severity the same finding would carry.
	Severity Severity `json:"severity"`
	// At is the virtual time of the observation that fired the detector.
	At float64 `json:"at"`
	// Index is the zero-based per-source observation index at firing.
	Index int64 `json:"index"`
	// Window snapshots the source's sliding-window statistics at firing —
	// the state a retrain decision is made on.
	Window WindowStats `json:"window"`
}

// windowStatsOf assembles the exported windowed statistics of a source
// (shared by triggers and reports; every value is finite by construction
// since q ∈ [0,1]).
func windowStatsOf(s *source) WindowStats {
	ws := WindowStats{
		Count:       len(s.ring),
		WithQuality: s.wWithQ,
		Mean:        sanitize(s.windowMean()),
		StdDev:      sanitize(s.windowStdDev()),
	}
	if len(s.ring) > 0 {
		n := float64(len(s.ring))
		ws.AcceptRate = sanitize(float64(s.wAccept) / n)
		ws.EpsilonRate = sanitize(float64(s.wEpsilon) / n)
		ws.DegradedRate = sanitize(float64(s.wDegraded) / n)
	}
	return ws
}
