package quality

import "cqm/internal/obs"

// Metric names of the quality analytics engine. Every cqm_quality_*
// series is fleet-level with a fixed cardinality; per-source detail lives
// in the /quality report. Counters accumulate over the engine's lifetime,
// the sources gauge moves on every join, and the health and alert gauges
// carry the most recent report's view.
const (
	// MetricObservations counts tracked scoring decisions.
	MetricObservations = "cqm_quality_observations_total"
	// MetricEpsilons counts tracked ε (no-quality) decisions.
	MetricEpsilons = "cqm_quality_epsilons_total"
	// MetricDrift counts drift alarms, labelled detector=ph|ks.
	MetricDrift = "cqm_quality_drift_total"
	// MetricSources is the number of tracked sources.
	MetricSources = "cqm_quality_sources"
	// MetricHealth is the overall health score of the last report, in
	// [0,1].
	MetricHealth = "cqm_quality_health"
	// MetricAlerts is the number of active alerts in the last report,
	// labelled by severity.
	MetricAlerts = "cqm_quality_alerts"
	// MetricTraceStageSeconds is the distribution of per-stage pipeline
	// latency in virtual seconds, labelled by stage.
	MetricTraceStageSeconds = "cqm_trace_stage_virtual_seconds"
	// MetricTracesSampled counts pipeline traces started by the sampler.
	MetricTracesSampled = "cqm_trace_sampled_total"
)

// engineMetrics are the engine's pre-resolved registry handles; the zero
// value (nil registry) makes every update a no-op.
type engineMetrics struct {
	observations *obs.Counter
	epsilons     *obs.Counter
	driftPH      *obs.Counter
	driftKS      *obs.Counter
	sources      *obs.Gauge
	health       *obs.Gauge
	info         *obs.Gauge
	warn         *obs.Gauge
	errs         *obs.Gauge
}

// newEngineMetrics resolves the engine-level metrics once. The health
// gauge starts at the empty engine's score, so a fresh engine reads
// healthy before its first report.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	reg.Help(MetricObservations, "Scoring decisions tracked by the quality engine.")
	reg.Help(MetricEpsilons, "Tracked epsilon (no-quality) decisions.")
	reg.Help(MetricDrift, "Drift alarms, by detector.")
	reg.Help(MetricSources, "Sources tracked by the quality engine.")
	reg.Help(MetricHealth, "Overall health score of the last quality report.")
	reg.Help(MetricAlerts, "Active alerts in the last quality report, by severity.")
	m := engineMetrics{
		observations: reg.Counter(MetricObservations),
		epsilons:     reg.Counter(MetricEpsilons),
		driftPH:      reg.Counter(MetricDrift, "detector", "ph"),
		driftKS:      reg.Counter(MetricDrift, "detector", "ks"),
		sources:      reg.Gauge(MetricSources),
		health:       reg.Gauge(MetricHealth),
		info:         reg.Gauge(MetricAlerts, "severity", string(SeverityInfo)),
		warn:         reg.Gauge(MetricAlerts, "severity", string(SeverityWarning)),
		errs:         reg.Gauge(MetricAlerts, "severity", string(SeverityError)),
	}
	m.health.Set(1)
	return m
}
