package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter is a no-op, so disabled instrumentation costs one
// predictable branch and zero allocations.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as IEEE-754 bits in a
// single atomic word. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations are counted into the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// bucket at the end. Buckets are per-bucket atomics so concurrent
// observers never contend on a lock. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
	n       atomic.Int64
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	own := make([]float64, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Bucket sets are small (≤ ~20); linear scan beats binary search.
	placed := false
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and the *cumulative* counts per bound
// (Prometheus semantics); the final +Inf count equals Count().
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

// Timer records durations (in seconds) into a histogram. A nil *Timer is a
// no-op.
type Timer struct {
	h *Histogram
}

// Observe records one duration.
//
//lint:ignore unused the Timer and nil-registry tests check it alongside Start
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}

// Time runs fn and records its wall-clock duration. It works on a nil
// receiver (fn still runs, nothing is recorded).
//
//lint:ignore nondeterminism,unused measuring wall-clock time is this type's purpose; TestNilRegistryAndMetricsAreNoOps checks it alongside Start
func (t *Timer) Time(fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.h.Observe(time.Since(start).Seconds())
}

// Stopwatch is one in-flight timing; Stop records it.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Start begins a stopwatch. On a nil timer the stopwatch is inert.
//
//lint:ignore nondeterminism measuring wall-clock time is this type's purpose
func (t *Timer) Start() Stopwatch {
	if t == nil {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stop records the elapsed time and returns it.
//
//lint:ignore nondeterminism measuring wall-clock time is this type's purpose
func (s Stopwatch) Stop() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.h.Observe(d.Seconds())
	return d
}

// DefBuckets are general-purpose latency bounds in seconds (Prometheus'
// classic defaults).
var DefBuckets = []float64{
	.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// UnitBuckets are ten equal bounds over [0,1] — the natural buckets for
// quality values q ∈ [0,1].
var UnitBuckets = []float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1,
}

// LinearBuckets returns count ascending bounds starting at start, spaced
// by width.
//
//lint:ignore unused TestBucketGenerators checks it alongside ExpBuckets
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count ascending bounds starting at start,
// each factor times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
