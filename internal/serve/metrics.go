package serve

import (
	"time"

	"cqm/internal/obs"
)

// Metric names of the serving layer.
const (
	// MetricAdmitted counts requests accepted into a shard queue.
	MetricAdmitted = "cqm_serve_admitted_total"
	// MetricRejected counts explicit rejections, labelled by reason.
	MetricRejected = "cqm_serve_rejected_total"
	// MetricScored counts scored requests, labelled by status.
	MetricScored = "cqm_serve_scored_total"
	// MetricBatches counts ScoreBatch invocations across all shards.
	MetricBatches = "cqm_serve_batches_total"
	// MetricBatchSize is the distribution of frames folded per batch.
	MetricBatchSize = "cqm_serve_batch_size"
	// MetricShardRestarts counts batches recovered from a panic (their
	// unanswered requests rejected as internal failures); the name is
	// kept for the dashboards and load reports that read it.
	MetricShardRestarts = "cqm_serve_shard_restarts_total"
	// MetricQueueSojourn is the distribution of queue sojourn times in
	// milliseconds, observed at dequeue — the load shedder's signal.
	MetricQueueSojourn = "cqm_serve_queue_sojourn_ms"
)

// batchSizeBuckets cover 1..the largest plausible batch in powers of two.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// sojournBuckets cover 10µs..10s of queue delay in decades with a 1-2-5
// ladder, in milliseconds.
var sojournBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// serveMetrics are the pre-resolved serving metrics; the zero value is
// instrumentation off, one nil-check per update.
type serveMetrics struct {
	admitted     *obs.Counter
	rejOverload  *obs.Counter
	rejDraining  *obs.Counter
	rejNoModel   *obs.Counter
	rejInternal  *obs.Counter
	rejDeadline  *obs.Counter
	rejShed      *obs.Counter
	accepted     *obs.Counter
	discarded    *obs.Counter
	epsilon      *obs.Counter
	batches      *obs.Counter
	restarts     *obs.Counter
	batchSize    *obs.Histogram
	queueSojourn *obs.Histogram
}

// newServeMetrics resolves the server's metrics once.
func newServeMetrics(reg *obs.Registry) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	reg.Help(MetricAdmitted, "Requests admitted into a shard queue.")
	reg.Help(MetricRejected, "Requests explicitly rejected, by reason.")
	reg.Help(MetricScored, "Requests scored, by decision status.")
	reg.Help(MetricBatches, "ScoreBatch invocations across all shards.")
	reg.Help(MetricBatchSize, "Frames folded into each ScoreBatch call.")
	reg.Help(MetricShardRestarts, "Batches recovered from a panic.")
	reg.Help(MetricQueueSojourn, "Queue sojourn at dequeue in milliseconds.")
	return serveMetrics{
		admitted:     reg.Counter(MetricAdmitted),
		rejOverload:  reg.Counter(MetricRejected, "reason", RejectOverloaded.String()),
		rejDraining:  reg.Counter(MetricRejected, "reason", RejectDraining.String()),
		rejNoModel:   reg.Counter(MetricRejected, "reason", RejectUnavailable.String()),
		rejInternal:  reg.Counter(MetricRejected, "reason", RejectInternal.String()),
		rejDeadline:  reg.Counter(MetricRejected, "reason", RejectDeadline.String()),
		rejShed:      reg.Counter(MetricRejected, "reason", RejectShed.String()),
		accepted:     reg.Counter(MetricScored, "status", StatusAccepted.String()),
		discarded:    reg.Counter(MetricScored, "status", StatusDiscarded.String()),
		epsilon:      reg.Counter(MetricScored, "status", StatusEpsilon.String()),
		batches:      reg.Counter(MetricBatches),
		restarts:     reg.Counter(MetricShardRestarts),
		batchSize:    reg.Histogram(MetricBatchSize, batchSizeBuckets),
		queueSojourn: reg.Histogram(MetricQueueSojourn, sojournBuckets),
	}
}

// reject tallies one explicit rejection.
func (m serveMetrics) reject(code RejectCode) {
	switch code {
	case RejectOverloaded:
		m.rejOverload.Inc()
	case RejectDraining:
		m.rejDraining.Inc()
	case RejectUnavailable:
		m.rejNoModel.Inc()
	case RejectDeadline:
		m.rejDeadline.Inc()
	case RejectShed:
		m.rejShed.Inc()
	default:
		m.rejInternal.Inc()
	}
}

// sojourn observes one dequeue-time queue delay.
func (m serveMetrics) sojourn(d time.Duration) {
	m.queueSojourn.Observe(float64(d) / float64(time.Millisecond))
}

// scored tallies one scoring outcome.
func (m serveMetrics) scored(s Status) {
	switch s {
	case StatusAccepted:
		m.accepted.Inc()
	case StatusDiscarded:
		m.discarded.Inc()
	default:
		m.epsilon.Inc()
	}
}
