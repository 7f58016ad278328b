package quality

import (
	"sort"
	"sync"

	"cqm/internal/obs"
)

// DefaultWindow is the sliding-window size used when Config.Window is
// unset.
const DefaultWindow = 64

// Config parameterizes an Engine. The zero value is usable: default
// window, default detector tuning, no reference (KS disabled), no
// metrics.
type Config struct {
	// Window is the per-source sliding-window size in decisions.
	// Default DefaultWindow. A source's ring starts smaller and grows to
	// Window as its decisions arrive.
	Window int
	// Threshold is the acceptance threshold the engine uses to derive
	// accept/discard from q (a scored observation is accepted when
	// q > Threshold).
	Threshold float64
	// Reference is the training-time quality distribution for the KS
	// drift test; nil disables the test.
	Reference *Reference
	// PH tunes the Page–Hinkley decline detector (zero fields take
	// defaults).
	PH PHConfig
	// KS tunes the Kolmogorov–Smirnov drift test (zero fields take
	// defaults).
	KS KSConfig
	// Metrics, when non-nil, receives cqm_quality_* series.
	Metrics *obs.Registry
	// OnTrigger, when non-nil, receives one structured Trigger per
	// detector firing (a Page–Hinkley alarm, or a KS test newly turning
	// drifting), synchronously from Observe or ObserveBatch while the engine lock is
	// held — the hook must be fast and must not call back into the
	// engine. This is the typed feed the adaptation supervisor consumes
	// instead of parsing report Recommendation strings.
	OnTrigger func(Trigger)
}

// Observation is one scoring decision fed to the engine.
type Observation struct {
	// Source names the producing sensor/pipeline (one tracking state per
	// distinct name). A non-empty Source takes precedence over Node.
	Source string
	// Node names the source when Source is empty: an 8-byte node id whose
	// name is its bytes up to the trailing zero bytes, as
	// particle.NodeID.String renders it. Naming a source by Node or by that
	// string reaches the same tracking state; only a join builds the
	// string.
	Node [8]byte
	// At is the observation's virtual time in seconds.
	At float64
	// Q is the context quality score, meaningful only when HasQ.
	Q float64
	// HasQ is false for ε decisions (quality not computable).
	HasQ bool
	// Degraded marks observations whose input cues were degraded.
	Degraded bool
}

// Engine tracks per-source quality streams and assembles QualityReports.
// It is safe for concurrent use; determinism is the caller's contract:
// feed observations in a deterministic order (as the simulation's ordered
// publish path does) and every statistic, alert, and drift epoch replays
// bit-identically. A nil *Engine is a no-op on every method.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	met      engineMetrics
	sources  map[string]*source
	observed int64
	// unflushed counts the decisions and ε decisions folded since the
	// metrics counters were last advanced (flushCounts).
	unflushed, unflushedEps int64
}

// NewEngine returns an engine over cfg (zero fields take defaults).
func NewEngine(cfg Config) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	cfg.PH = cfg.PH.withDefaults()
	cfg.KS = cfg.KS.withDefaults()
	return &Engine{
		cfg:     cfg,
		met:     newEngineMetrics(cfg.Metrics),
		sources: make(map[string]*source),
	}
}

// ringStart is the ring capacity a source joins with (at most the window);
// grow doubles it, up to the window. A smaller start is not smaller in
// practice: on perfbench fleet (pens of 11 decisions, 2 vCPUs) an 8-slot
// start peaked at 27.2 MB RSS against 23.7 MB, because the outgrown 8-slot
// rings stay in the heap until the next GC.
const ringStart = 16

// observeChunk is how many observations ObserveBatch resolves to their
// sources before it folds them; the resolved sources live in a stack array
// of this size.
const observeChunk = 32

// Observe folds one decision into the engine: window statistics, lifetime
// statistics, the Page–Hinkley detector, and (every KS.Every decisions per
// source) the KS drift test.
//
//cqm:hotpath
func (e *Engine) Observe(o Observation) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fold(e.lookup(&o), &o)
	e.flushCounts()
}

// ObserveBatch folds a batch of decisions in order, exactly as one Observe
// per element would, under one acquisition of the engine lock. It resolves
// each chunk of observeChunk observations to their sources before it
// folds them, so the map lookups of a chunk do not wait on each other's
// folds. The engine keeps no reference to batch.
//
//cqm:hotpath
func (e *Engine) ObserveBatch(batch []Observation) {
	if e == nil || len(batch) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var srcs [observeChunk]*source
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), observeChunk)]
		for i := range chunk {
			srcs[i] = e.lookup(&chunk[i])
		}
		for i := range chunk {
			e.fold(srcs[i], &chunk[i])
		}
		batch = batch[len(chunk):]
	}
	e.flushCounts()
}

// flushCounts adds the decisions folded since the last flush to the
// metrics counters: once per batch, and before the OnTrigger hook runs, so
// that a panicking hook leaves the counters agreeing with what was folded.
// Called with the engine lock held.
func (e *Engine) flushCounts() {
	e.met.observations.Add(e.unflushed)
	if e.unflushedEps > 0 {
		e.met.epsilons.Add(e.unflushedEps)
	}
	e.unflushed, e.unflushedEps = 0, 0
}

// lookup returns the tracking state of o's source, joining it on first
// sight. Called with the engine lock held.
func (e *Engine) lookup(o *Observation) *source {
	if o.Source != "" {
		if s, ok := e.sources[o.Source]; ok {
			return s
		}
	} else if s, ok := e.sources[string(o.Node[:nodeLen(&o.Node)])]; ok { //lint:ignore hotpath-alloc a map index by string(bytes) does not allocate; TestObserveBatchZeroAlloc pins it
		return s
	}
	return e.join(o)
}

// nodeLen is the length of a node id's name: its bytes up to the trailing
// zero bytes.
func nodeLen(node *[8]byte) int {
	n := len(node)
	for n > 0 && node[n-1] == 0 {
		n--
	}
	return n
}

// join starts tracking o's source. It runs once per source lifetime, so
// its allocations are amortized to nothing on the per-observation path.
// Called with the engine lock held.
//
//cqm:coldpath
//go:noinline
func (e *Engine) join(o *Observation) *source {
	name := o.Source
	if name == "" {
		name = string(o.Node[:nodeLen(&o.Node)])
	}
	s := &source{
		name: name,
		ring: make([]sample, 0, min(e.cfg.Window, ringStart)),
		ph:   PageHinkley{cfg: e.cfg.PH},
	}
	e.sources[name] = s
	e.met.sources.Set(float64(len(e.sources)))
	return s
}

// grow doubles the capacity of s's filling ring, up to window. It runs at
// most ⌈log2(window/ringStart)⌉ times per source lifetime, so its
// allocations are amortized to nothing on the per-observation path.
//
//cqm:coldpath
//go:noinline
func (s *source) grow(window int) {
	ring := make([]sample, len(s.ring), min(2*cap(s.ring), window))
	copy(ring, s.ring)
	s.ring = ring
}

// fold adds one observation to its source s and runs the detectors on it.
// Called with the engine lock held.
func (e *Engine) fold(s *source, o *Observation) {
	e.observed++
	e.unflushed++
	if !o.HasQ {
		e.unflushedEps++
	}
	fired := s.add(sample{
		at:       o.At,
		q:        o.Q,
		hasQ:     o.HasQ,
		accepted: o.HasQ && o.Q > e.cfg.Threshold,
		degraded: o.Degraded,
	}, e.cfg.Window)
	if fired {
		e.met.driftPH.Inc()
		e.fireTrigger(s, TriggerPH, o.At)
	}
	// KS runs on a stride so its amortized cost stays O(1)-ish per
	// observation; a fresh evaluation also happens at report time.
	if e.cfg.Reference != nil && s.observed%int64(e.cfg.KS.Every) == 0 {
		prev := s.ks.Evaluated && s.ks.Drifting
		s.ks = KSAgainst(e.cfg.Reference, s.windowQs(), e.cfg.KS)
		if s.ks.Evaluated && s.ks.Drifting && !prev {
			e.met.driftKS.Inc()
			e.fireTrigger(s, TriggerKS, o.At)
		}
	}
}

// fireTrigger counts one detector firing and hands the structured event to
// the OnTrigger hook. Called with the engine lock held; the per-source
// observation index of the firing observation, at virtual time at, is
// s.observed-1 (add already folded it in).
func (e *Engine) fireTrigger(s *source, kind string, at float64) {
	s.triggers++
	if e.cfg.OnTrigger == nil {
		return
	}
	e.flushCounts()
	e.cfg.OnTrigger(Trigger{
		Source:   s.name,
		Kind:     kind,
		Severity: SeverityError,
		At:       at,
		Index:    s.observed - 1,
		Window:   windowStatsOf(s),
	})
}

// Report assembles the current QualityReport: per-source statistics,
// trends, a fresh KS evaluation, alerts, and the overall health grade.
// Per-source sections are sorted by name and every float is finite, so
// the JSON encoding is stable and never fails.
func (e *Engine) Report() *Report {
	if e == nil {
		return &Report{Health: HealthOptimal, HealthScore: 1}
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	rep := &Report{
		Observations: e.observed,
		Sources:      make([]SourceReport, 0, len(e.sources)),
	}
	for _, name := range e.sortedNames() {
		s := e.sources[name]
		if s.lastAt > rep.At {
			rep.At = s.lastAt
		}
		if e.cfg.Reference != nil {
			s.ks = KSAgainst(e.cfg.Reference, s.windowQs(), e.cfg.KS)
		}
		sr := SourceReport{
			Name:           name,
			Observed:       s.observed,
			Accepted:       s.accepted,
			Discarded:      s.discarded,
			Epsilons:       s.epsilons,
			Degraded:       s.degraded,
			Triggers:       s.triggers,
			FirstAt:        sanitize(s.firstAt),
			LastAt:         sanitize(s.lastAt),
			LifetimeMean:   sanitize(s.lifetime.Mean()),
			LifetimeStdDev: sanitize(s.lifetime.StdDev()),
			Window:         windowStatsOf(s),
			Trends:         trendsOf(sanitize(s.velocity()), sanitize(s.windowStdDev())),
			PageHinkley: PHState{
				Stat:   sanitize(s.ph.Stat()),
				Count:  s.ph.Count(),
				Fired:  s.phFired,
				Epochs: append([]DriftEpoch(nil), s.phEpochs...),
			},
			KS: s.ks,
		}
		sr.KS.Stat = sanitize(sr.KS.Stat)
		sr.KS.Critical = sanitize(sr.KS.Critical)
		rep.Alerts = append(rep.Alerts, alertsFor(&sr)...)
		rep.Sources = append(rep.Sources, sr)
	}
	sort.Slice(rep.Alerts, func(i, j int) bool {
		if rep.Alerts[i].Source != rep.Alerts[j].Source {
			return rep.Alerts[i].Source < rep.Alerts[j].Source
		}
		return rep.Alerts[i].Kind < rep.Alerts[j].Kind
	})
	rep.HealthScore, rep.Health = healthOf(rep.Alerts)

	var info, warn, errs int
	for _, a := range rep.Alerts {
		switch a.Severity {
		case SeverityError:
			errs++
		case SeverityWarning:
			warn++
		default:
			info++
		}
	}
	e.met.health.Set(rep.HealthScore)
	e.met.info.Set(float64(info))
	e.met.warn.Set(float64(warn))
	e.met.errs.Set(float64(errs))
	return rep
}

// Sources returns the tracked source names, sorted.
func (e *Engine) Sources() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sortedNames()
}

// sortedNames returns the tracked source names in sorted order, the
// order of every report. Called with the engine lock held. Sorting here
// rather than on every join keeps a first-seen Observe free of an
// O(n log n) step.
func (e *Engine) sortedNames() []string {
	names := make([]string, 0, len(e.sources))
	for name := range e.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
