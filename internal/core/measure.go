package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"cqm/internal/anfis"
	"cqm/internal/cluster"
	"cqm/internal/fuzzy"
	"cqm/internal/obs"
	"cqm/internal/parallel"
	"cqm/internal/sensor"
)

// scoreGrain chunks batch scoring; part of the deterministic-reduction
// contract (fixed, never derived from worker count or environment).
const scoreGrain = 16

// Measure is the Context Quality Measure: the normalized quality FIS S_Q.
// Build one with Build; score classifications with Score, or batches with
// ScoreBatchInto. Instrument attaches runtime metrics; without it scoring
// stays completely unobserved.
//
// Every constructor compiles sys into the serving kernel that
// ScoreBatchInto and ScoreBatch run; Score and RawScore evaluate sys
// itself and are the reference the kernel is tested against.
type Measure struct {
	sys *fuzzy.TSK
	k   kernel
	met measureMetrics
}

// Instrument registers the measure's runtime metrics — scorings, ε
// outcomes, and the quality-value distribution — on reg. A nil registry
// turns instrumentation off again. Metric pointers are resolved once here,
// so the scoring hot path never touches the registry.
func (m *Measure) Instrument(reg *obs.Registry) {
	m.met = newMeasureMetrics(reg)
}

// MeasureFromSystem wraps an externally constructed quality FIS (ablation
// experiments build systems from alternative clusterings). The system must
// map v_Q = (cues…, c) to the designated 0/1 output.
func MeasureFromSystem(sys *fuzzy.TSK) *Measure {
	return &Measure{sys: sys, k: compileKernel(sys)}
}

// BuildConfig parameterizes the automated construction of the quality FIS
// (paper §2.2).
type BuildConfig struct {
	// Clustering configures the subtractive clustering over the v_Q
	// vectors; the zero value uses Chiu's defaults.
	Clustering cluster.SubtractiveConfig
	// Hybrid configures the ANFIS hybrid-learning refinement; the zero
	// value uses the anfis defaults.
	Hybrid anfis.Config
	// SkipHybrid disables the ANFIS refinement, leaving the
	// clustering+least-squares system — the ablation the paper's pipeline
	// implies (construction alone vs construction + tuning).
	SkipHybrid bool
	// ConstantConsequents uses zero-order consequents instead of the
	// paper's linear ones (ablation for the §2.1.2 remark that linear
	// consequents give better reliability results).
	ConstantConsequents bool
	// Observer, when non-nil, receives per-epoch hybrid-learning events
	// and the stopping decision — the training-progress hook.
	Observer TrainObserver
	// Metrics, when non-nil, records construction metrics (epoch counter,
	// live train/check RMSE gauges, a stop event) and pre-instruments the
	// built Measure, as if Instrument had been called on it.
	Metrics *obs.Registry
}

// Build constructs the quality FIS from observations with secondary
// knowledge. The designated output is 1 for correct and 0 for wrong
// classifications; check drives the hybrid-learning early stop and may be
// nil (then a tail of train is split off automatically, mirroring the
// paper's separate check set).
func Build(train, check []Observation, cfg BuildConfig) (*Measure, error) {
	if len(train) == 0 {
		return nil, ErrNoObservations
	}
	if check == nil {
		// Hold out the final quarter as the check set.
		cut := len(train) * 3 / 4
		if cut < 1 {
			cut = 1
		}
		if cut < len(train) {
			check = train[cut:]
			train = train[:cut]
		}
	}
	trainData := observationsToData(train)
	checkData := observationsToData(check)

	// The construction registry also instruments the worker pools of the
	// parallelized stages, unless the caller set a dedicated one.
	clustering := cfg.Clustering
	if clustering.Metrics == nil {
		clustering.Metrics = cfg.Metrics
	}
	sys, err := anfis.Build(trainData, anfis.BuildConfig{
		Clustering:          clustering,
		ConstantConsequents: cfg.ConstantConsequents,
	})
	if err != nil {
		return nil, fmt.Errorf("core: constructing quality FIS: %w", err)
	}
	if !cfg.SkipHybrid {
		var checkArg *anfis.Data
		if checkData.Len() > 0 {
			checkArg = checkData
		}
		hybrid := cfg.Hybrid
		hybrid.ConstantConsequents = cfg.ConstantConsequents
		hybrid.Observer = cfg.Observer
		if cfg.Metrics != nil {
			hybrid.Observer = anfis.Observers(hybrid.Observer, metricsObserver(cfg.Metrics))
		}
		if hybrid.Metrics == nil {
			hybrid.Metrics = cfg.Metrics
		}
		if _, err := anfis.Train(sys, trainData, checkArg, hybrid); err != nil {
			return nil, fmt.Errorf("core: hybrid learning: %w", err)
		}
	}
	m := MeasureFromSystem(sys)
	m.Instrument(cfg.Metrics)
	return m, nil
}

// observationsToData converts observations into the (v_Q, designated
// output) pairs the ANFIS layer trains on.
func observationsToData(obs []Observation) *anfis.Data {
	d := &anfis.Data{
		X: make([][]float64, len(obs)),
		Y: make([]float64, len(obs)),
	}
	for i, o := range obs {
		d.X[i] = qualityInput(o.Cues, o.Class)
		if o.Correct {
			d.Y[i] = 1
		}
	}
	return d
}

// Score returns the CQM q ∈ [0,1] for one classification: the quality FIS
// evaluated at v_Q = (cues, c), normalized by L. It returns ErrEpsilon
// when the raw output falls outside the normalizable range and
// fuzzy.ErrNoActivation (wrapped in ErrEpsilon) when no rule fires —
// either way the caller should treat the classification as unusable.
func (m *Measure) Score(cues []float64, class sensor.Context) (float64, error) {
	if m == nil || m.sys == nil {
		return 0, ErrUnbuilt
	}
	raw, err := m.RawScore(cues, class)
	if err != nil {
		m.met.scored.Inc()
		m.met.epsilon.Inc()
		return 0, err
	}
	q, err := Normalize(raw)
	m.met.scored.Inc()
	if err != nil {
		m.met.epsilon.Inc()
		return 0, err
	}
	m.met.quality.Observe(q)
	return q, nil
}

// RawScore returns the un-normalized FIS output S̃_Q(v_Q); exposed for the
// normalization ablation. A no-activation input is reported as ErrEpsilon.
func (m *Measure) RawScore(cues []float64, class sensor.Context) (float64, error) {
	if m == nil || m.sys == nil {
		return 0, ErrUnbuilt
	}
	raw, err := m.sys.Eval(qualityInput(cues, class))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrEpsilon, err)
	}
	return raw, nil
}

// errShortOutputs reports ScoreBatchInto outputs too short for the batch.
var errShortOutputs = errors.New("core: ScoreBatchInto outputs are shorter than the batch")

// ScoreBatchInto scores every observation into outputs the caller owns:
// ok[i] reports whether batch[i] normalized cleanly, and qs[i] is its
// quality value when it did (0 in the ε state). qs and ok must hold at
// least len(batch) entries; only the first len(batch) are written. The values
// are bit-identical to Score's, which also reports a cue vector of the
// wrong length as ε, so ScoreBatchInto fails as a whole only on an
// unbuilt measure, an empty batch, or short outputs.
//
// With instrumentation on, it adds the batch to the scored and ε counters
// once and observes every clean q, in index order.
//
//cqm:hotpath
func (m *Measure) ScoreBatchInto(batch []Observation, qs []float64, ok []bool) error {
	if err := m.checkBatch(len(batch), len(qs), len(ok)); err != nil {
		return err
	}
	qs, ok = qs[:len(batch)], ok[:len(batch)]
	for i := range batch {
		qs[i], ok[i] = m.k.score(batch[i].Cues, batch[i].Class.ID())
	}
	m.met.batch(qs, ok)
	return nil
}

// checkBatch validates a batch of n observations scored into outputs of
// lengths nq and nok.
func (m *Measure) checkBatch(n, nq, nok int) error {
	switch {
	case m == nil || m.sys == nil:
		return ErrUnbuilt
	case n == 0:
		return ErrNoObservations
	case nq < n || nok < n:
		return errShortOutputs
	}
	return nil
}

// ScoreBatch scores every observation, optionally in parallel on pool
// (nil runs serially), into fresh result slices; see ScoreBatchInto. The
// outputs are bit-identical at every worker count: each slot is written
// by exactly one worker and every score is an independent evaluation.
func (m *Measure) ScoreBatch(observations []Observation, pool *parallel.Pool) ([]float64, []bool, error) {
	n := len(observations)
	if err := m.checkBatch(n, n, n); err != nil {
		return nil, nil, err
	}
	qs, ok := make([]float64, n), make([]bool, n)
	if pool == nil {
		return qs, ok, m.ScoreBatchInto(observations, qs, ok)
	}
	// The ForEach error is always nil — the context is never cancelled.
	_ = pool.ForEach(context.Background(), n, scoreGrain, func(i int) {
		qs[i], ok[i] = m.k.score(observations[i].Cues, observations[i].Class.ID())
	})
	m.met.batch(qs, ok)
	return qs, ok, nil
}

// ScoreObservations scores a batch, returning the q values for the
// observations that normalize cleanly, the indices that fell into the ε
// state, and the correctness labels aligned with the q values.
func (m *Measure) ScoreObservations(obs []Observation) (qs []float64, correct []bool, epsilon []int, err error) {
	all, ok, err := m.ScoreBatch(obs, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range obs {
		if !ok[i] {
			epsilon = append(epsilon, i)
			continue
		}
		qs = append(qs, all[i])
		correct = append(correct, obs[i].Correct)
	}
	return qs, correct, epsilon, nil
}

// Rules returns the number of rules in the quality FIS.
func (m *Measure) Rules() int {
	if m == nil || m.sys == nil {
		return 0
	}
	return m.sys.NumRules()
}

// Inputs returns the dimensionality of v_Q the measure expects (cues + 1).
func (m *Measure) Inputs() int {
	if m == nil || m.sys == nil {
		return 0
	}
	return m.sys.Inputs()
}

// System exposes the underlying fuzzy system for inspection. Treat it as
// read-only: the serving kernel was compiled from it when the measure was
// constructed, so a change to it would reach Score but not ScoreBatch.
func (m *Measure) System() *fuzzy.TSK { return m.sys }

// MarshalJSON serializes the measure (its quality FIS).
func (m *Measure) MarshalJSON() ([]byte, error) {
	if m.sys == nil {
		return nil, ErrUnbuilt
	}
	return json.Marshal(m.sys)
}

// UnmarshalJSON restores a serialized measure.
func (m *Measure) UnmarshalJSON(data []byte) error {
	var sys fuzzy.TSK
	if err := json.Unmarshal(data, &sys); err != nil {
		return fmt.Errorf("core: decoding measure: %w", err)
	}
	m.sys = &sys
	m.k = compileKernel(&sys)
	return nil
}
