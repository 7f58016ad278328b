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

// serveMetrics are the server's counters, resolved once: the one copy of
// every counted fact, exported on /metrics and read back by Stats. With no
// registry the counters live in a private one, so Stats still counts; the
// histograms are then nil, and observing them is a no-op.
type serveMetrics struct {
	admitted     *obs.Counter
	rejected     [RejectShed + 1]*obs.Counter // by RejectCode; nil for none and protocol
	scored       [StatusEpsilon + 1]*obs.Counter
	batches      *obs.Counter
	restarts     *obs.Counter
	batchSize    *obs.Histogram
	queueSojourn *obs.Histogram
}

// newServeMetrics resolves the server's metrics once.
func newServeMetrics(reg *obs.Registry) serveMetrics {
	var m serveMetrics
	if reg != nil {
		reg.Help(MetricAdmitted, "Requests admitted into a shard queue.")
		reg.Help(MetricRejected, "Requests explicitly rejected, by reason.")
		reg.Help(MetricScored, "Requests scored, by decision status.")
		reg.Help(MetricBatches, "ScoreBatch invocations across all shards.")
		reg.Help(MetricBatchSize, "Frames folded into each ScoreBatch call.")
		reg.Help(MetricShardRestarts, "Batches recovered from a panic.")
		reg.Help(MetricQueueSojourn, "Queue sojourn at dequeue in milliseconds.")
		m.batchSize = reg.Histogram(MetricBatchSize, batchSizeBuckets)
		m.queueSojourn = reg.Histogram(MetricQueueSojourn, sojournBuckets)
	} else {
		reg = obs.NewRegistry()
	}
	m.admitted = reg.Counter(MetricAdmitted)
	for _, e := range rejectErrs {
		m.rejected[e.code] = reg.Counter(MetricRejected, "reason", e.code.String())
	}
	for st := range m.scored {
		m.scored[st] = reg.Counter(MetricScored, "status", Status(st).String())
	}
	m.batches = reg.Counter(MetricBatches)
	m.restarts = reg.Counter(MetricShardRestarts)
	return m
}

// sojourn observes one dequeue-time queue delay.
func (m *serveMetrics) sojourn(d time.Duration) {
	m.queueSojourn.Observe(float64(d) / float64(time.Millisecond))
}
