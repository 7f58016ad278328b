package core

import (
	"strconv"

	"cqm/internal/anfis"
	"cqm/internal/obs"
)

// Training-progress hooks, re-exported so callers configure them through
// BuildConfig without importing the anfis layer.
type (
	// TrainObserver receives per-epoch hybrid-learning events.
	TrainObserver = anfis.TrainObserver
	// EpochEvent is one completed training epoch.
	EpochEvent = anfis.EpochEvent
	// StopEvent is the end of a training run.
	StopEvent = anfis.StopEvent
	// TrainObserverFuncs adapts plain functions to a TrainObserver.
	TrainObserverFuncs = anfis.ObserverFuncs
	// TrainState is the complete resumable state of a hybrid-learning run;
	// checkpointing observers capture it and BuildConfig.Hybrid.Resume
	// restarts from it.
	TrainState = anfis.TrainState
	// SnapshotEvent hands a checkpointable TrainState to a snapshot-aware
	// observer after each completed epoch.
	SnapshotEvent = anfis.SnapshotEvent
)

// TrainObservers fans events out to several observers.
var TrainObservers = anfis.Observers

// Metric names of the core pipeline. Every layer registers under these so
// dashboards and tests address one stable vocabulary.
const (
	// MetricScored counts quality scorings (ε included).
	MetricScored = "cqm_score_total"
	// MetricEpsilon counts scorings that fell into the ε error state; the
	// ε-rate is MetricEpsilon / MetricScored.
	MetricEpsilon = "cqm_score_epsilon_total"
	// MetricQuality is the distribution of produced q values.
	MetricQuality = "cqm_quality"
	// MetricFilterDecisions counts filter outcomes, labelled
	// decision=accept|reject|epsilon and filter=static|adaptive.
	MetricFilterDecisions = "cqm_filter_decisions_total"
	// MetricFeedback counts adaptive-filter feedbacks, labelled
	// outcome=right|wrong|epsilon.
	MetricFeedback = "cqm_adaptive_feedback_total"
	// MetricThresholdUpdates counts adaptive threshold re-estimations.
	MetricThresholdUpdates = "cqm_adaptive_updates_total"
	// MetricThreshold is the current adaptive acceptance threshold.
	MetricThreshold = "cqm_adaptive_threshold"
	// MetricWidenings counts graceful-degradation threshold widenings
	// triggered by sustained ε rates.
	MetricWidenings = "cqm_adaptive_widenings_total"
	// MetricTrainEpochs counts hybrid-learning epochs run.
	MetricTrainEpochs = "cqm_train_epochs_total"
	// MetricTrainRMSE is the most recent training RMSE.
	MetricTrainRMSE = "cqm_train_rmse"
	// MetricCheckRMSE is the most recent check-set RMSE.
	MetricCheckRMSE = "cqm_train_check_rmse"
)

// metricsObserver bridges training events into a registry: an epoch
// counter, live train/check RMSE gauges, and a stop event carrying the
// early-stop reason.
func metricsObserver(reg *obs.Registry) anfis.TrainObserver {
	reg.Help(MetricTrainEpochs, "Hybrid-learning epochs run.")
	reg.Help(MetricTrainRMSE, "Training RMSE after the most recent epoch.")
	reg.Help(MetricCheckRMSE, "Check-set RMSE after the most recent epoch.")
	epochs := reg.Counter(MetricTrainEpochs)
	trainRMSE := reg.Gauge(MetricTrainRMSE)
	checkRMSE := reg.Gauge(MetricCheckRMSE)
	return anfis.ObserverFuncs{
		OnEpoch: func(ev anfis.EpochEvent) {
			epochs.Inc()
			trainRMSE.Set(ev.TrainRMSE)
			if ev.HasCheck {
				checkRMSE.Set(ev.CheckRMSE)
			}
		},
		OnStop: func(ev anfis.StopEvent) {
			reg.RecordEvent("cqm_train_stop",
				"reason", string(ev.Reason),
				"epochs", strconv.Itoa(ev.Epochs),
				"best_epoch", strconv.Itoa(ev.BestEpoch),
			)
		},
	}
}

// measureMetrics are the pre-resolved hot-path metrics of a Measure. All
// fields nil (the zero value) means instrumentation is off and every
// update is a single nil-check — no allocation, no registry lookup.
type measureMetrics struct {
	scored  *obs.Counter
	epsilon *obs.Counter
	quality *obs.Histogram
}

// newMeasureMetrics resolves the measure's metrics once.
func newMeasureMetrics(reg *obs.Registry) measureMetrics {
	if reg == nil {
		return measureMetrics{}
	}
	reg.Help(MetricScored, "Quality scorings performed (includes epsilon outcomes).")
	reg.Help(MetricEpsilon, "Quality scorings that fell into the epsilon error state.")
	reg.Help(MetricQuality, "Distribution of produced quality values q.")
	return measureMetrics{
		scored:  reg.Counter(MetricScored),
		epsilon: reg.Counter(MetricEpsilon),
		quality: reg.Histogram(MetricQuality, obs.UnitBuckets),
	}
}

// batch records one scored batch: len(ok) scorings, the ε count, and the
// q of every clean score in index order.
func (mm measureMetrics) batch(qs []float64, ok []bool) {
	if mm.scored == nil {
		return
	}
	eps := 0
	for i, clean := range ok {
		if clean {
			mm.quality.Observe(qs[i])
		} else {
			eps++
		}
	}
	mm.scored.Add(int64(len(ok)))
	mm.epsilon.Add(int64(eps))
}

// filterMetrics are the pre-resolved decision counters of a filter.
type filterMetrics struct {
	accepted *obs.Counter
	rejected *obs.Counter
	epsilon  *obs.Counter
}

// newFilterMetrics resolves decision counters for the static or adaptive
// filter variant.
func newFilterMetrics(reg *obs.Registry, variant string) filterMetrics {
	if reg == nil {
		return filterMetrics{}
	}
	reg.Help(MetricFilterDecisions, "Filter outcomes by decision and filter variant.")
	return filterMetrics{
		accepted: reg.Counter(MetricFilterDecisions, "decision", "accept", "filter", variant),
		rejected: reg.Counter(MetricFilterDecisions, "decision", "reject", "filter", variant),
		epsilon:  reg.Counter(MetricFilterDecisions, "decision", "epsilon", "filter", variant),
	}
}

// observe tallies one decision.
func (m filterMetrics) observe(d Decision) {
	switch {
	case d.Epsilon:
		m.epsilon.Inc()
	case d.Accepted:
		m.accepted.Inc()
	default:
		m.rejected.Inc()
	}
}

// adaptiveMetrics extends filterMetrics with the feedback loop's state.
type adaptiveMetrics struct {
	filterMetrics
	feedbackRight   *obs.Counter
	feedbackWrong   *obs.Counter
	feedbackEpsilon *obs.Counter
	updates         *obs.Counter
	widenings       *obs.Counter
	threshold       *obs.Gauge
}

// newAdaptiveMetrics resolves the adaptive filter's metrics.
func newAdaptiveMetrics(reg *obs.Registry) adaptiveMetrics {
	if reg == nil {
		return adaptiveMetrics{}
	}
	reg.Help(MetricFeedback, "Adaptive-filter feedbacks by outcome.")
	reg.Help(MetricThresholdUpdates, "Adaptive threshold re-estimations.")
	reg.Help(MetricThreshold, "Current adaptive acceptance threshold.")
	reg.Help(MetricWidenings, "Threshold widenings under sustained ε rates.")
	return adaptiveMetrics{
		filterMetrics:   newFilterMetrics(reg, "adaptive"),
		feedbackRight:   reg.Counter(MetricFeedback, "outcome", "right"),
		feedbackWrong:   reg.Counter(MetricFeedback, "outcome", "wrong"),
		feedbackEpsilon: reg.Counter(MetricFeedback, "outcome", "epsilon"),
		updates:         reg.Counter(MetricThresholdUpdates),
		widenings:       reg.Counter(MetricWidenings),
		threshold:       reg.Gauge(MetricThreshold),
	}
}

// ThresholdEvent reports one adaptive-threshold move to an observer.
type ThresholdEvent struct {
	// Old and New are the thresholds before and after the re-estimation.
	Old, New float64
	// Updates is the total number of re-estimations performed, this one
	// included.
	Updates int
}
