package adapt

import "cqm/internal/obs"

// Metric names of the adaptation supervisor, all under cqm_adapt_*.
const (
	// MetricTriggers counts drift triggers accepted into a cycle.
	MetricTriggers = "cqm_adapt_triggers_total"
	// MetricTriggersIgnored counts triggers dropped by cool-down or because
	// a cycle was already in flight.
	MetricTriggersIgnored = "cqm_adapt_triggers_ignored_total"
	// MetricRetrainsStarted counts shadow retrains begun.
	MetricRetrainsStarted = "cqm_adapt_retrains_started_total"
	// MetricRetrainsSucceeded counts retrains that produced a candidate.
	MetricRetrainsSucceeded = "cqm_adapt_retrains_succeeded_total"
	// MetricRetrainsFailed counts retrains that errored out.
	MetricRetrainsFailed = "cqm_adapt_retrains_failed_total"
	// MetricQuarantined counts candidates rejected at the validation gate.
	MetricQuarantined = "cqm_adapt_quarantined_total"
	// MetricPromotions counts hot promotions of a candidate into serving.
	MetricPromotions = "cqm_adapt_promotions_total"
	// MetricRollbacks counts automatic restorations of the last-good model.
	MetricRollbacks = "cqm_adapt_rollbacks_total"
	// MetricCanaryPasses counts canary windows the promoted model survived.
	MetricCanaryPasses = "cqm_adapt_canary_passes_total"
	// MetricState is the supervisor state as an integer (see State values).
	MetricState = "cqm_adapt_state"
	// MetricCooldownUntil is the virtual time before which triggers are
	// ignored.
	MetricCooldownUntil = "cqm_adapt_cooldown_until"
	// MetricCycle is the current (or last) adaptation cycle number.
	MetricCycle = "cqm_adapt_cycle"
	// MetricWindowSize is the number of pseudo-labelled observations
	// currently buffered for the next retrain window.
	MetricWindowSize = "cqm_adapt_window_size"
	// MetricErrors counts internal errors on paths with no caller to
	// return them to (journal append or last-good persistence failing
	// inside the canary close) — journal/disk divergence signals.
	MetricErrors = "cqm_adapt_errors_total"
)

// adaptMetrics are the pre-resolved supervisor metrics; the zero value (no
// registry) makes every update a nil-safe no-op.
type adaptMetrics struct {
	// committed counts committed records by kind; kinds without a
	// counter, and the zero value, map to a nil (no-op) counter.
	committed       map[string]*obs.Counter
	triggersIgnored *obs.Counter
	retrainsStarted *obs.Counter
	errors          *obs.Counter
	state           *obs.Gauge
	cooldownUntil   *obs.Gauge
	cycle           *obs.Gauge
	windowSize      *obs.Gauge
}

// newAdaptMetrics resolves the supervisor metrics once.
func newAdaptMetrics(reg *obs.Registry) adaptMetrics {
	if reg == nil {
		return adaptMetrics{}
	}
	reg.Help(MetricTriggers, "Drift triggers accepted into an adaptation cycle.")
	reg.Help(MetricTriggersIgnored, "Drift triggers dropped by cool-down or an in-flight cycle.")
	reg.Help(MetricRetrainsStarted, "Shadow retrains begun.")
	reg.Help(MetricRetrainsSucceeded, "Shadow retrains that produced a candidate model.")
	reg.Help(MetricRetrainsFailed, "Shadow retrains that errored out.")
	reg.Help(MetricQuarantined, "Candidates rejected at the validation gate.")
	reg.Help(MetricPromotions, "Candidates hot-promoted into serving.")
	reg.Help(MetricRollbacks, "Automatic rollbacks to the last-good model.")
	reg.Help(MetricCanaryPasses, "Canary windows the promoted model survived.")
	reg.Help(MetricState, "Supervisor state (0 idle, 1 retraining, 2 gated, 3 promoting, 4 canary).")
	reg.Help(MetricCooldownUntil, "Virtual time before which new triggers are ignored.")
	reg.Help(MetricCycle, "Current or last adaptation cycle number.")
	reg.Help(MetricWindowSize, "Pseudo-labelled observations buffered for the next retrain window.")
	reg.Help(MetricErrors, "Internal adaptation errors with no caller to surface them (journal/disk divergence).")
	return adaptMetrics{
		committed: map[string]*obs.Counter{
			KindTrigger:       reg.Counter(MetricTriggers),
			KindRetrainDone:   reg.Counter(MetricRetrainsSucceeded),
			KindRetrainFailed: reg.Counter(MetricRetrainsFailed),
			KindQuarantine:    reg.Counter(MetricQuarantined),
			KindPromoted:      reg.Counter(MetricPromotions),
			KindRollback:      reg.Counter(MetricRollbacks),
			KindCanaryPass:    reg.Counter(MetricCanaryPasses),
		},
		triggersIgnored: reg.Counter(MetricTriggersIgnored),
		retrainsStarted: reg.Counter(MetricRetrainsStarted),
		errors:          reg.Counter(MetricErrors),
		state:           reg.Gauge(MetricState),
		cooldownUntil:   reg.Gauge(MetricCooldownUntil),
		cycle:           reg.Gauge(MetricCycle),
		windowSize:      reg.Gauge(MetricWindowSize),
	}
}
