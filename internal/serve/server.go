package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/quality"
	"cqm/internal/sensor"
)

// Admission errors returned by Submit. Fronts translate them into 429 /
// 503 / reject frames; anything else from Submit is a request-validation
// error (a protocol fault of the caller).
var (
	// ErrOverloaded reports a full shard queue — explicit backpressure.
	ErrOverloaded = errors.New("serve: shard queue full")
	// ErrDraining reports a server that has stopped admitting work.
	ErrDraining = errors.New("serve: server draining")
	// ErrUnavailable reports that no model is currently loaded.
	ErrUnavailable = errors.New("serve: no model loaded")
	// ErrInternal reports a scoring failure that is not the ε state.
	ErrInternal = errors.New("serve: internal scoring failure")
	// ErrDeadline reports an admitted request whose deadline budget
	// expired while it waited on a shard queue; the server rejects it
	// instead of spending a ScoreBatch slot on an answer nobody wants.
	ErrDeadline = errors.New("serve: deadline expired before scoring")
	// ErrShed reports an admitted request dropped by the CoDel-style
	// adaptive load shedder: queue sojourn stayed above the target for a
	// full interval, so the shard traded this request for queue health.
	ErrShed = errors.New("serve: shed on sustained queue delay")
)

// rejectErrs is the one mapping between wire reject codes and the errors
// Submit returns; errForReject and rejectCodeFor read it in opposite
// directions. RejectProtocol has no entry: its error is the request's own
// validation error, and any error not listed maps back to it.
var rejectErrs = [...]struct {
	code RejectCode
	err  error
}{
	{RejectOverloaded, ErrOverloaded},
	{RejectDraining, ErrDraining},
	{RejectUnavailable, ErrUnavailable},
	{RejectInternal, ErrInternal},
	{RejectDeadline, ErrDeadline},
	{RejectShed, ErrShed},
}

// errForReject maps a reject code onto Submit's error; an unknown code
// is an internal failure.
func errForReject(code RejectCode) error {
	for _, e := range rejectErrs {
		if e.code == code {
			return e.err
		}
	}
	return ErrInternal
}

// rejectCodeFor maps a Submit error onto the wire reject code; anything
// that is not an admission or scoring error is a protocol fault.
func rejectCodeFor(err error) RejectCode {
	for _, e := range rejectErrs {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return RejectProtocol
}

// Config parameterizes a Server.
type Config struct {
	// Shards is the shard count; sources are assigned to shards
	// by consistent hashing. Default 1.
	Shards int
	// QueueDepth bounds each shard's queue; a full queue rejects with
	// ErrOverloaded. Default 1024.
	QueueDepth int
	// BatchSize caps how many queued requests are folded into one
	// ScoreBatchInto call. Default 256.
	BatchSize int
	// Threshold is the acceptance threshold s applied to q.
	Threshold float64
	// Handle supplies the served model; it may be hot-swapped at any
	// time (ckpt.ModelWatcher). Each batch loads the handle exactly
	// once, so a swap never mixes two models inside one batch.
	Handle *ckpt.Handle
	// Metrics, when non-nil, receives cqm_serve_* series. When nil, the
	// counters Stats reads live in a private registry and the histograms
	// are off.
	Metrics *obs.Registry
	// Quality, when non-nil, receives one engine observation per scored
	// request (source = the request's node id), folded in once per batch
	// before any request of the batch is answered.
	Quality *quality.Engine
	// BatchObserver, when non-nil, is called synchronously after every
	// batch with the model that scored it and the per-request outcomes
	// (the slice is reused across batches — copy to retain). It runs on
	// whichever goroutine is combining the shard — a Submit caller, a
	// binary connection's reader or an HTTP handler — and other requests
	// of that shard wait while it runs. Test and analytics hook; keep it
	// fast.
	BatchObserver func(m *core.Measure, outs []Outcome)
	// DecisionObserver, when non-nil, is called synchronously per scored
	// request with the source, the request's virtual time in seconds, its
	// cues and class id, and the outcome — the adaptation supervisor's
	// decision feed. The cues slice is the request's own; copy to retain.
	// Keep it fast: like BatchObserver it runs on whichever goroutine is
	// combining the shard, which may be a binary reader or an HTTP handler.
	DecisionObserver func(source string, at float64, cues []float64, classID int, out Outcome)
	// ShedTarget enables CoDel-style adaptive load shedding: when the
	// queue sojourn of dequeued requests stays above this target for a
	// full ShedInterval, shards start rejecting (RejectShed) at an
	// inverse-sqrt-accelerating rate until sojourn drops back under the
	// target. Zero disables shedding (only the fixed queue bound
	// applies).
	ShedTarget time.Duration
	// ShedInterval is the CoDel observation interval. Default 100ms.
	ShedInterval time.Duration
	// IdleTimeout bounds how long a binary connection may go without
	// completing a frame in either direction before the server hangs up —
	// the defence against stalled and byte-dribbling (slow-loris) peers.
	// Zero means the 2-minute default; negative disables the deadlines.
	IdleTimeout time.Duration
	// Clock overrides the time source (admission stamps, deadline and
	// shedding decisions). Test hook; nil means time.Now.
	Clock func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.ShedInterval == 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Outcome is the scored result of one admitted request.
type Outcome struct {
	// Status is the decision: accepted, discarded, or ε.
	Status Status
	// Q is the quality value (meaningful unless Status is ε).
	Q float64
}

// task is one request on its way through admission and a shard, and
// carries its own answer back. Whoever answers it (admit on a refused
// admission, the shard's combiner otherwise) sets out or reject and sends
// the task itself on done, a channel owned by the caller, then never
// touches it again. Every done channel has room for every task that can
// be outstanding on it, so that send never blocks: a combiner can answer
// another connection's task, and a slow client cannot stall a shard other
// connections share.
type task struct {
	req Request
	// cues holds the decoded cues of a binary-front request; req.Cues
	// points into it (readFrame). Submit's tasks carry the caller's slice.
	cues   [MaxCues]float64
	done   chan *task
	out    Outcome
	reject RejectCode // RejectNone when scored
	// enqueued is the admission stamp feeding the sojourn-time shedder.
	enqueued time.Time
	// deadline is the absolute expiry derived from the request's budget;
	// the zero value means no deadline.
	deadline time.Time
}

// Stats holds the server's accounting counters, as read by Server.Stats
// from the counters /metrics exports. After Drain returns, Admitted ==
// Scored() + AdmittedRejects(): every admitted request was scored or
// explicitly rejected with a typed reason, never silently dropped — the
// invariant holds across shard panics, deadline expiry, and load shedding.
type Stats struct {
	// Admitted counts requests that entered a shard queue.
	Admitted uint64
	// Accepted, Discarded, and Epsilon count scoring outcomes.
	Accepted  uint64
	Discarded uint64
	Epsilon   uint64
	// RejectedOverload counts admissions refused on a full queue.
	RejectedOverload uint64
	// RejectedDraining counts admissions refused during drain.
	RejectedDraining uint64
	// RejectedUnavailable counts admitted requests rejected because no
	// model was loaded when their batch ran.
	RejectedUnavailable uint64
	// RejectedInternal counts admitted requests rejected on a non-ε
	// scoring failure (including requests orphaned by a shard panic).
	RejectedInternal uint64
	// RejectedDeadline counts admitted requests whose deadline budget
	// expired before their batch ran.
	RejectedDeadline uint64
	// RejectedShed counts admitted requests dropped by the adaptive
	// queue-delay shedder.
	RejectedShed uint64
	// ShardRestarts counts batches recovered from a panic: the batch's
	// unanswered tasks were rejected as internal failures and the shard
	// kept serving.
	ShardRestarts uint64
	// Batches counts ScoreBatch invocations across all shards.
	Batches uint64
	// MaxBatch is the largest batch folded so far.
	MaxBatch uint64
}

// Scored returns the number of admitted requests that produced a decision.
func (s Stats) Scored() uint64 { return s.Accepted + s.Discarded + s.Epsilon }

// AdmittedRejects returns the admitted requests answered with an explicit
// rejection instead of a score. Admitted == Scored() + AdmittedRejects()
// once the server has drained.
func (s Stats) AdmittedRejects() uint64 {
	return s.RejectedUnavailable + s.RejectedInternal + s.RejectedDeadline + s.RejectedShed
}

// Server is the sharded scoring service: admission control in Submit,
// per-shard batch folding run by the goroutines that admit the work, and
// a drain protocol that accounts for every admitted request. It starts no
// goroutine of its own.
type Server struct {
	cfg    Config
	ring   *Ring
	shards []*shard
	met    serveMetrics
	pool   sync.Pool

	// admission guards the draining flag against in-flight Submits:
	// admission is under RLock, the drain transition under Lock.
	admission sync.RWMutex
	draining  bool
	inflight  sync.WaitGroup

	// maxBatch is the one accounting fact with no exported series.
	maxBatch atomic.Uint64
}

// shard is one scoring lane: a bounded task queue, the count of queued
// tasks no combiner has claimed yet, and batch buffers that only the
// shard's current combiner touches. Entries of batch are nilled as they
// are answered, so panic recovery can tell which tasks of an interrupted
// batch still owe a response.
type shard struct {
	srv     *Server
	tasks   chan *task
	pending atomic.Int64
	batch   []*task
	obs     []core.Observation
	qs      []float64 // ScoreBatchInto's outputs, BatchSize long
	okv     []bool
	outs    []Outcome
	qobs    []quality.Observation // the batch's Quality feed
	shed    codel
}

// New validates cfg and builds the shard ring and the shards.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Handle == nil {
		return nil, fmt.Errorf("serve: config needs a model handle")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("serve: shard count %d < 1", cfg.Shards)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d < 1", cfg.QueueDepth)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("serve: batch size %d < 1", cfg.BatchSize)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("serve: threshold %v outside [0,1]", cfg.Threshold)
	}
	if cfg.ShedTarget < 0 {
		return nil, fmt.Errorf("serve: shed target %v negative", cfg.ShedTarget)
	}
	if cfg.ShedInterval < 0 {
		return nil, fmt.Errorf("serve: shed interval %v negative", cfg.ShedInterval)
	}
	ring, err := NewRing(cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		ring: ring,
		met:  newServeMetrics(cfg.Metrics),
	}
	s.pool.New = func() any { return &task{done: make(chan *task, 1)} }
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:   s,
			tasks: make(chan *task, cfg.QueueDepth),
			batch: make([]*task, 0, cfg.BatchSize),
			obs:   make([]core.Observation, 0, cfg.BatchSize),
			qs:    make([]float64, cfg.BatchSize),
			okv:   make([]bool, cfg.BatchSize),
			outs:  make([]Outcome, 0, cfg.BatchSize),
			qobs:  make([]quality.Observation, 0, cfg.BatchSize),
			shed:  codel{target: cfg.ShedTarget, interval: cfg.ShedInterval},
		}
	}
	return s, nil
}

// Threshold returns the acceptance threshold the server applies.
func (s *Server) Threshold() float64 { return s.cfg.Threshold }

// Shards returns the shard count.
func (s *Server) Shards() int { return s.cfg.Shards }

// ShardOf exposes the shard assignment of a source id (the consistent-hash
// map the fronts and tests share).
func (s *Server) ShardOf(source []byte) int { return s.ring.Shard(source) }

// Submit scores one request through its source's shard, blocking until it
// is answered; if no other goroutine is combining that shard, Submit
// scores the shard's queue itself. The error is nil for a scored outcome,
// or one of the admission errors (ErrOverloaded, ErrDraining,
// ErrUnavailable, ErrInternal, ErrDeadline, ErrShed); a request failing
// Validate is returned unscored with the validation error.
func (s *Server) Submit(req Request) (Outcome, error) {
	t := s.pool.Get().(*task)
	t.req = req
	s.start(t)
	<-t.done
	out, code := t.out, t.reject
	t.req.Cues = nil // drop the reference so pooled tasks do not pin cue slices
	s.pool.Put(t)
	switch code {
	case RejectNone:
		return out, nil
	case RejectProtocol:
		return Outcome{}, req.Validate()
	}
	return Outcome{}, errForReject(code)
}

// start admits t and, if that makes the caller its shard's combiner,
// combines the shard at once.
func (s *Server) start(t *task) {
	if sh := s.admit(t, s.cfg.Clock()); sh != nil {
		sh.combine()
	}
}

// admit validates, stamps and queues t on its source's shard. now is the
// caller's admission stamp, a clock read taken no earlier than the request
// arrived; queue sojourn and the deadline budget run from it. Exactly one
// answer then follows on t.done: a combiner's, or t itself carrying
// RejectProtocol, RejectDraining or RejectOverloaded. admit returns the
// shard when the caller has become its combiner; the caller must then
// call combine before it next blocks, since every task queued on the
// shard in the meantime waits for it.
func (s *Server) admit(t *task, now time.Time) *shard {
	t.out, t.reject = Outcome{}, RejectNone
	if t.req.Validate() != nil {
		t.reject = RejectProtocol
		t.done <- t
		return nil
	}
	t.enqueued = now
	t.deadline = time.Time{}
	if t.req.DeadlineMillis > 0 {
		t.deadline = t.enqueued.Add(time.Duration(t.req.DeadlineMillis) * time.Millisecond)
	}

	sh := s.shards[s.ring.Shard(t.req.Node[:])]
	s.admission.RLock()
	if s.draining {
		s.admission.RUnlock()
		s.refuse(t, RejectDraining)
		return nil
	}
	// A combiner calls inflight.Done once it has answered, which may be
	// before this goroutine runs again: count the task before it is
	// visible to the shard.
	s.inflight.Add(1)
	select {
	case sh.tasks <- t:
		// Counted only once queued, so pending never exceeds the queue.
		elected := sh.pending.Add(1) == 1
		// Counted before the unlock: Drain cannot start waiting until then,
		// so it never returns with an answered task not yet admitted.
		s.met.admitted.Inc()
		s.admission.RUnlock()
		if elected {
			return sh
		}
	default:
		s.inflight.Done()
		s.admission.RUnlock()
		s.refuse(t, RejectOverloaded)
	}
	return nil
}

// refuse counts and answers an admission refusal.
func (s *Server) refuse(t *task, code RejectCode) {
	s.met.rejected[code].Inc()
	t.reject = code
	t.done <- t
}

// Drain stops admitting new requests and waits until every
// already-admitted request has been answered. It is idempotent and safe to
// call concurrently with Submit: a Submit racing the transition either
// completes normally or reports ErrDraining. Every queued task has a
// combiner that scores it before blocking, so the wait ends.
func (s *Server) Drain() {
	s.admission.Lock()
	s.draining = true
	s.admission.Unlock()
	s.inflight.Wait()
}

// Draining reports whether the server has begun (or finished) draining.
func (s *Server) Draining() bool {
	s.admission.RLock()
	defer s.admission.RUnlock()
	return s.draining
}

// Stats reads the accounting counters: the ones /metrics exports. Each
// field is read on its own, so the fields agree with each other only once
// Drain has returned. Servers sharing one Config.Metrics registry share its
// counters, and each one's Stats reports their sum, as /metrics does;
// MaxBatch, which has no series, stays per server.
func (s *Server) Stats() Stats {
	m := &s.met
	n := func(c *obs.Counter) uint64 { return uint64(c.Value()) }
	return Stats{
		Admitted:            n(m.admitted),
		Accepted:            n(m.scored[StatusAccepted]),
		Discarded:           n(m.scored[StatusDiscarded]),
		Epsilon:             n(m.scored[StatusEpsilon]),
		RejectedOverload:    n(m.rejected[RejectOverloaded]),
		RejectedDraining:    n(m.rejected[RejectDraining]),
		RejectedUnavailable: n(m.rejected[RejectUnavailable]),
		RejectedInternal:    n(m.rejected[RejectInternal]),
		RejectedDeadline:    n(m.rejected[RejectDeadline]),
		RejectedShed:        n(m.rejected[RejectShed]),
		ShardRestarts:       n(m.restarts),
		Batches:             n(m.batches),
		MaxBatch:            s.maxBatch.Load(),
	}
}

// combine scores the shard's queue until no admitted task is left
// unclaimed. Only the admitter whose increment took pending from 0 to 1
// runs it, so one goroutine at a time owns the batch buffers. Each pass
// receives exactly min(pending, BatchSize) tasks, which the queue already
// holds, so no receive blocks; the pass whose subtraction brings pending
// back to 0 ends the loop, and the next admission elects a new combiner.
// This is the serving hot loop — its buffers are shard-owned and reused,
// so the steady state performs no allocation.
//
//cqm:hotpath
func (sh *shard) combine() {
	size := int64(sh.srv.cfg.BatchSize)
	for n := sh.pending.Load(); n > 0; {
		k := min(n, size)
		for i := int64(0); i < k; i++ {
			sh.batch = append(sh.batch, <-sh.tasks) //lint:ignore hotpath-alloc shard-owned buffer at fixed cap; append never grows past BatchSize
		}
		sh.score()
		n = sh.pending.Add(-k)
	}
}

// combineAll combines every shard in elected and returns it emptied.
func combineAll(elected []*shard) []*shard {
	for _, sh := range elected {
		sh.combine()
	}
	return elected[:0]
}

// recoverBatch converts a panic anywhere in the scoring path (a hostile
// model, an observer hook) into RejectInternal answers for the batch's
// unanswered tasks, so the drain invariant survives the crash and the
// shard keeps serving.
func (sh *shard) recoverBatch() {
	if recover() != nil {
		sh.srv.met.restarts.Inc()
		sh.answerUnanswered(RejectInternal)
	}
}

// answerUnanswered rejects every batch entry not yet nilled by an answer,
// then empties the batch so a later crash cannot double-answer.
func (sh *shard) answerUnanswered(code RejectCode) {
	for i, t := range sh.batch {
		if t == nil {
			continue
		}
		sh.batch[i] = nil
		sh.answerReject(t, code)
	}
	sh.batch = sh.batch[:0]
}

// answerReject counts and answers one explicit per-task rejection.
func (sh *shard) answerReject(t *task, code RejectCode) {
	srv := sh.srv
	srv.met.rejected[code].Inc()
	t.reject = code
	t.done <- t
	srv.inflight.Done()
}

// score answers every task in the current batch: expired and shed tasks
// with typed rejections before a ScoreBatchInto slot is spent, the rest with
// scoring outcomes, all behind a panic barrier. The model handle is loaded
// exactly once per batch: a hot swap lands between batches, never inside
// one.
func (sh *shard) score() {
	defer sh.recoverBatch()
	srv := sh.srv
	n := uint64(len(sh.batch))
	srv.met.batches.Inc()
	for prev := srv.maxBatch.Load(); n > prev && !srv.maxBatch.CompareAndSwap(prev, n); prev = srv.maxBatch.Load() {
	}
	srv.met.batchSize.Observe(float64(n))

	// Dequeue-time admission: one clock read covers the whole batch.
	// Expired deadlines answer RejectDeadline, the CoDel shedder answers
	// RejectShed, and the batch compacts in place to the live remainder
	// (the tail is nilled so panic recovery sees answered slots).
	now := srv.cfg.Clock()
	live := sh.batch[:0]
	for _, t := range sh.batch {
		srv.met.sojourn(now.Sub(t.enqueued))
		switch {
		case !t.deadline.IsZero() && now.After(t.deadline):
			sh.answerReject(t, RejectDeadline)
		case sh.shed.drop(now, now.Sub(t.enqueued)):
			sh.answerReject(t, RejectShed)
		default:
			live = append(live, t) //lint:ignore hotpath-alloc in-place filter over the shard-owned batch; capacity never grows
		}
	}
	for i := len(live); i < len(sh.batch); i++ {
		sh.batch[i] = nil
	}
	sh.batch = live
	if len(sh.batch) == 0 {
		return
	}

	m := srv.cfg.Handle.Load()
	if m == nil {
		sh.answerUnanswered(RejectUnavailable)
		return
	}
	sh.obs = sh.obs[:0]
	for _, t := range sh.batch {
		sh.obs = append(sh.obs, core.Observation{ //lint:ignore hotpath-alloc shard-owned buffer at fixed cap; append never grows past BatchSize
			Cues:  t.req.Cues,
			Class: sensor.ContextByID(int(t.req.ClassID)),
		})
	}
	if err := m.ScoreBatchInto(sh.obs, sh.qs, sh.okv); err != nil {
		// ScoreBatchInto fails as a whole only on an unbuilt system, an
		// explicit rejection rather than a drop.
		sh.answerUnanswered(RejectInternal)
		return
	}
	sh.outs = sh.outs[:0]
	sh.qobs = sh.qobs[:0]
	for i, t := range sh.batch {
		var out Outcome
		if !sh.okv[i] {
			out.Status = StatusEpsilon
		} else if out.Q = sh.qs[i]; out.Q > srv.cfg.Threshold {
			out.Status = StatusAccepted
		} else {
			out.Status = StatusDiscarded
		}
		sh.outs = append(sh.outs, out) //lint:ignore hotpath-alloc shard-owned buffer at fixed cap; append never grows past BatchSize
		if srv.cfg.Quality != nil {
			sh.qobs = append(sh.qobs, quality.Observation{ //lint:ignore hotpath-alloc shard-owned buffer at fixed cap; append never grows past BatchSize
				Node: t.req.Node,
				At:   float64(t.req.SentMillis) / 1000,
				Q:    out.Q,
				HasQ: out.Status != StatusEpsilon,
			})
		}
	}
	// The whole batch is observed before any of it is answered, so a
	// client never holds an answer that /quality does not yet count. A
	// panic here (only the engine's OnTrigger hook can raise one) leaves
	// every task to recoverBatch.
	srv.cfg.Quality.ObserveBatch(sh.qobs)
	for i, t := range sh.batch {
		out := sh.outs[i]
		if srv.cfg.DecisionObserver != nil {
			// The name string is built only for the observer; the quality
			// feed keys sources by the node id itself.
			srv.cfg.DecisionObserver(t.req.Node.String(), float64(t.req.SentMillis)/1000,
				t.req.Cues, int(t.req.ClassID), out)
		}
		sh.batch[i] = nil
		t.out = out
		// Counted with the answer, not before the observer: a panic in it
		// leaves the task to recoverBatch, which counts it as internal.
		srv.met.scored[out.Status].Inc()
		t.done <- t
		srv.inflight.Done()
	}
	sh.batch = sh.batch[:0]
	if srv.cfg.BatchObserver != nil {
		srv.cfg.BatchObserver(m, sh.outs)
	}
}

// codel is the per-shard CoDel-style shedding state (Nichols & Jacobson's
// controlled-delay AQM, transplanted from packet queues to the shard task
// queue). The signal is queue sojourn time at dequeue — the only statistic
// that directly measures what a client feels — rather than queue length,
// which a bursty arrival process renders meaningless. Sojourn below target
// resets the controller; sojourn above target for a full interval enters
// the dropping state, where every drop advances the next one by
// interval/sqrt(count), the control law that nudges the queue back to the
// target delay without collapsing goodput.
type codel struct {
	target   time.Duration
	interval time.Duration

	firstAbove time.Time // when the current above-target excursion ends its grace interval
	dropNext   time.Time // next scheduled drop while dropping
	dropping   bool
	count      int // drops in the current dropping episode
}

// drop decides whether the task dequeued at now after the given sojourn
// is shed. A zero target disables the controller.
func (c *codel) drop(now time.Time, sojourn time.Duration) bool {
	if c.target <= 0 {
		return false
	}
	if sojourn < c.target {
		// Below target: leave dropping state, forget the excursion.
		c.firstAbove = time.Time{}
		c.dropping = false
		return false
	}
	if c.firstAbove.IsZero() {
		// First above-target observation: grace of one interval.
		c.firstAbove = now.Add(c.interval)
		return false
	}
	if !c.dropping {
		if now.Before(c.firstAbove) {
			return false
		}
		c.dropping = true
		// Resume the drop cadence near where the last episode left off
		// (CoDel's hysteresis) rather than from scratch.
		if c.count > 2 {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = now
	}
	if now.Before(c.dropNext) {
		return false
	}
	c.count++
	c.dropNext = now.Add(time.Duration(float64(c.interval) / math.Sqrt(float64(c.count))))
	return true
}
