package anfis

import (
	"context"
	"fmt"
	"math"

	"cqm/internal/fuzzy"
	"cqm/internal/obs"
	"cqm/internal/parallel"
	"cqm/internal/regress"
)

// Parallelization constants for training. The grains shape the chunk
// partition of the gradient and error reductions and are therefore part
// of the deterministic-reduction contract: fixed here, never derived
// from worker count or environment.
const (
	// anfisCutoff is the sample count below which the auto worker
	// setting stays serial.
	anfisCutoff = 512
	// gradGrain chunks the per-sample gradient accumulation.
	gradGrain = 32
	// rmseGrain chunks the per-sample squared-error accumulation.
	rmseGrain = 32
)

// StopReason explains why hybrid learning ended.
type StopReason string

// Stop reasons recorded in the training history.
const (
	// StopEpochs: the epoch budget ran out.
	StopEpochs StopReason = "epoch budget exhausted"
	// StopCheckDegraded: the check-set error degraded for Patience
	// consecutive epochs (the paper's stopping rule).
	StopCheckDegraded StopReason = "check error degraded"
	// StopConverged: the training error improvement fell below Tol.
	StopConverged StopReason = "training error converged"
	// StopDiverged: an epoch produced a NaN/Inf error or parameter and the
	// divergence-retry budget was exhausted (or zero). The system is rolled
	// back to the best finite snapshot, as with any other stop.
	StopDiverged StopReason = "training diverged"
)

// EpochEvent reports one completed hybrid-learning epoch to a
// TrainObserver.
type EpochEvent struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// TrainRMSE is the training error after this epoch.
	TrainRMSE float64
	// CheckRMSE is the check-set error after this epoch; valid only when
	// HasCheck.
	CheckRMSE float64
	// HasCheck reports whether a check set drives the early stop.
	HasCheck bool
	// LearningRate is the gradient step size used this epoch.
	LearningRate float64
	// Best reports whether this epoch's parameters became the kept
	// snapshot.
	Best bool
	// Diverged reports that this epoch produced a NaN/Inf error or
	// parameter. When divergence retries remain, the epoch index will be
	// re-attempted from the best finite snapshot at a reduced step size;
	// otherwise training stops with StopDiverged.
	Diverged bool
}

// StopEvent reports the end of a hybrid-learning run.
type StopEvent struct {
	// Reason explains why training stopped.
	Reason StopReason
	// Epochs is the number of epochs actually run.
	Epochs int
	// BestEpoch is the epoch whose parameters were kept.
	BestEpoch int
	// BestError is the error of the kept snapshot (check error with a
	// check set, train error otherwise).
	BestError float64
}

// TrainObserver receives per-epoch progress and the stopping decision of a
// hybrid-learning run. Epoch is called once per completed epoch, in order;
// Stop is called exactly once afterwards. Observers run synchronously on
// the training goroutine, so they must be fast.
type TrainObserver interface {
	TrainEpoch(EpochEvent)
	TrainStop(StopEvent)
}

// ObserverFuncs adapts plain functions to a TrainObserver; nil fields are
// skipped.
type ObserverFuncs struct {
	OnEpoch func(EpochEvent)
	OnStop  func(StopEvent)
}

// TrainEpoch implements TrainObserver.
func (o ObserverFuncs) TrainEpoch(ev EpochEvent) {
	if o.OnEpoch != nil {
		o.OnEpoch(ev)
	}
}

// TrainStop implements TrainObserver.
func (o ObserverFuncs) TrainStop(ev StopEvent) {
	if o.OnStop != nil {
		o.OnStop(ev)
	}
}

// TrainState is the complete internal state of a hybrid-learning run after
// some epoch: the current and best-so-far parameters plus every counter the
// loop consults (early-stop patience, adaptive-rate bookkeeping, history).
// Resuming Train from a TrainState replays the remaining epochs with
// arithmetic bit-identical to a run that was never interrupted, because the
// loop's float operations see exactly the same operands in the same order.
// All fields are finite after any completed epoch, so the state serializes
// cleanly to JSON.
type TrainState struct {
	// Epoch is the zero-based index of the last completed epoch.
	Epoch int `json:"epoch"`
	// Sys holds the parameters as of the end of Epoch.
	Sys *fuzzy.TSK `json:"sys"`
	// Best holds the kept (lowest-error) snapshot so far.
	Best *fuzzy.TSK `json:"best"`
	// BestEpoch is the epoch Best was captured at.
	BestEpoch int `json:"best_epoch"`
	// BestError is the error of Best (check error with a check set, train
	// error otherwise).
	BestError float64 `json:"best_error"`
	// Degraded counts consecutive check-error degradations so far.
	Degraded int `json:"degraded"`
	// PrevTrain is the training error the next epoch's Tol check compares
	// against.
	PrevTrain float64 `json:"prev_train"`
	// Rate is the learning rate the next epoch will step with.
	Rate float64 `json:"rate"`
	// Decreases counts consecutive training-error decreases (adaptive
	// rate).
	Decreases int `json:"decreases"`
	// Swings counts consecutive decrease/increase alternations (adaptive
	// rate).
	Swings int `json:"swings"`
	// TrainRMSE, CheckRMSE, and LearningRates mirror History up to Epoch.
	TrainRMSE     []float64 `json:"train_rmse"`
	CheckRMSE     []float64 `json:"check_rmse,omitempty"`
	LearningRates []float64 `json:"learning_rates"`
}

// Validate checks the structural invariants a resumable state must hold.
func (s *TrainState) Validate() error {
	switch {
	case s == nil:
		return fmt.Errorf("anfis: nil train state")
	case s.Sys == nil || s.Best == nil:
		return fmt.Errorf("anfis: train state missing system snapshots")
	case s.Epoch < 0:
		return fmt.Errorf("anfis: train state epoch %d", s.Epoch)
	case len(s.TrainRMSE) != s.Epoch+1 || len(s.LearningRates) != s.Epoch+1:
		return fmt.Errorf("anfis: train state history length %d/%d does not cover epoch %d",
			len(s.TrainRMSE), len(s.LearningRates), s.Epoch)
	case len(s.CheckRMSE) != 0 && len(s.CheckRMSE) != s.Epoch+1:
		return fmt.Errorf("anfis: train state check history length %d for epoch %d",
			len(s.CheckRMSE), s.Epoch)
	case s.BestEpoch < 0 || s.BestEpoch > s.Epoch:
		return fmt.Errorf("anfis: train state best epoch %d outside [0,%d]", s.BestEpoch, s.Epoch)
	case s.Sys.Inputs() != s.Best.Inputs():
		return fmt.Errorf("anfis: train state snapshots disagree on arity (%d vs %d)",
			s.Sys.Inputs(), s.Best.Inputs())
	}
	return nil
}

// Clone returns a deep copy of the state.
func (s *TrainState) Clone() *TrainState {
	if s == nil {
		return nil
	}
	out := *s
	out.Sys = s.Sys.Clone()
	out.Best = s.Best.Clone()
	out.TrainRMSE = append([]float64(nil), s.TrainRMSE...)
	out.CheckRMSE = append([]float64(nil), s.CheckRMSE...)
	out.LearningRates = append([]float64(nil), s.LearningRates...)
	return &out
}

// SnapshotEvent hands a checkpointable TrainState to a SnapshotObserver at
// the end of a completed epoch. The state is a deep copy: the observer may
// retain or serialize it freely.
type SnapshotEvent struct {
	// State is the full training state after the completed epoch.
	State *TrainState
	// Best reports whether this epoch's parameters became the kept
	// snapshot, so checkpointers can maintain a best-so-far artifact.
	Best bool
}

// SnapshotObserver is an optional extension of TrainObserver: when the
// configured observer also implements it, Train hands it a deep-copied
// TrainState after every completed epoch — the hook checkpointers persist
// through. Snapshot capture clones the system twice per epoch, so Train
// only pays for it when the observer asks.
type SnapshotObserver interface {
	TrainSnapshot(SnapshotEvent)
}

// Observers fans one event stream out to several observers, in argument
// order; nil entries are dropped. All-nil input yields nil, and a single
// survivor is returned unwrapped, so Train's Observer != nil check keeps
// meaning "someone is listening". When any member implements
// SnapshotObserver the combined observer does too, forwarding snapshots to
// the members that want them; otherwise it deliberately does not, so Train
// skips the per-epoch state capture.
func Observers(list ...TrainObserver) TrainObserver {
	kept := make([]TrainObserver, 0, len(list))
	for _, o := range list {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	for _, o := range kept {
		if _, ok := o.(SnapshotObserver); ok {
			return multiSnapshotObserver{kept}
		}
	}
	return multiObserver(kept)
}

type multiObserver []TrainObserver

func (m multiObserver) TrainEpoch(ev EpochEvent) {
	for _, o := range m {
		o.TrainEpoch(ev)
	}
}

func (m multiObserver) TrainStop(ev StopEvent) {
	for _, o := range m {
		o.TrainStop(ev)
	}
}

// multiSnapshotObserver is a multiObserver with at least one
// snapshot-hungry member.
type multiSnapshotObserver struct {
	multiObserver
}

// TrainSnapshot forwards the snapshot to every member that implements
// SnapshotObserver.
func (m multiSnapshotObserver) TrainSnapshot(ev SnapshotEvent) {
	for _, o := range m.multiObserver {
		if s, ok := o.(SnapshotObserver); ok {
			s.TrainSnapshot(ev)
		}
	}
}

// Config parameterizes hybrid learning (paper §2.2.4).
type Config struct {
	// Epochs bounds the number of hybrid iterations. Default 100.
	Epochs int
	// LearningRate is the gradient-descent step size of the backward pass.
	// Default 0.02.
	LearningRate float64
	// MinSigma floors the Gaussian widths so membership functions cannot
	// collapse. Default 1e-4.
	MinSigma float64
	// Patience is the number of consecutive check-error degradations that
	// stops training. Default 5.
	Patience int
	// Tol stops training when the train RMSE improves by less than Tol
	// between epochs. Default 1e-9.
	Tol float64
	// LSMethod selects the forward-pass solver; zero value is SVD.
	LSMethod regress.Method
	// ConstantConsequents makes the forward pass fit zero-order
	// consequents, matching a system built with the same option.
	ConstantConsequents bool
	// AdaptiveRate enables Jang's step-size heuristic: after four
	// consecutive training-error decreases the learning rate grows by
	// RateGrow; after two decrease/increase oscillations it shrinks by
	// RateShrink.
	AdaptiveRate bool
	// RateGrow is the multiplicative increase factor. Default 1.1.
	RateGrow float64
	// RateShrink is the multiplicative decrease factor. Default 0.9.
	RateShrink float64
	// Observer, when non-nil, receives one EpochEvent per epoch and a
	// final StopEvent — the training-progress hook the CLIs and the
	// metrics layer report through. An observer that also implements
	// SnapshotObserver additionally receives a checkpointable TrainState
	// after every completed epoch.
	Observer TrainObserver
	// Resume, when non-nil, restarts training from a previously captured
	// TrainState instead of from scratch: the loop continues at
	// Resume.Epoch+1 with every counter restored, so the remaining epochs
	// are bit-identical to an uninterrupted run with the same data and
	// config. Epochs still names the total budget, not an increment.
	Resume *TrainState
	// DivergenceRetries bounds how many times a NaN/Inf epoch may be
	// retried: on divergence the parameters roll back to the best finite
	// snapshot, the step size shrinks by DivergenceShrink (and the
	// adaptive-rate heuristic, the usual cause of the blow-up, is disabled
	// for the rest of the run), and the same epoch index runs again. 0 (the
	// default) stops immediately with StopDiverged.
	DivergenceRetries int
	// DivergenceShrink is the step-size reduction factor applied on each
	// divergence rollback. Default 0.5.
	DivergenceShrink float64
	// Workers parallelizes the backward gradient pass and the per-epoch
	// RMSE evaluations: 0 picks one worker per CPU (falling back to
	// serial below a size cutoff), 1 forces serial execution. Training
	// results are bit-identical at every setting — gradient and error
	// sums are chunked by input shape and merged in chunk order
	// regardless of worker count.
	Workers int
	// Metrics, when non-nil, instruments the training worker pool
	// (occupancy, chunk counts and timings) on this registry.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 100
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.02
	}
	if c.MinSigma == 0 {
		c.MinSigma = 1e-4
	}
	if c.Patience == 0 {
		c.Patience = 5
	}
	if c.Tol == 0 {
		c.Tol = 1e-9
	}
	if c.RateGrow == 0 {
		c.RateGrow = 1.1
	}
	if c.RateShrink == 0 {
		c.RateShrink = 0.9
	}
	if c.DivergenceShrink == 0 {
		c.DivergenceShrink = 0.5
	}
	return c
}

// History records per-epoch errors and the stopping decision.
type History struct {
	// TrainRMSE[k] is the training RMSE after epoch k.
	TrainRMSE []float64
	// CheckRMSE[k] is the check-set RMSE after epoch k (empty without a
	// check set).
	CheckRMSE []float64
	// BestEpoch is the epoch whose parameters were kept (lowest check
	// RMSE; lowest train RMSE when no check set is given).
	BestEpoch int
	// BestError is the error of the kept snapshot — the check-set RMSE at
	// BestEpoch with a check set, the training RMSE otherwise — so logs and
	// checkpoint manifests can report the early-stopping state without
	// re-deriving it from the weights. +Inf when no epoch ran.
	BestError float64
	// Reason explains why training stopped.
	Reason StopReason
	// LearningRates records the per-epoch step size (constant unless
	// AdaptiveRate is enabled).
	LearningRates []float64
	// DivergenceRollbacks counts NaN/Inf epochs that were rolled back to
	// the best finite snapshot and retried at a reduced step size.
	DivergenceRollbacks int
}

// Train runs hybrid learning on sys in place: per epoch a backward
// gradient pass adapts every Gaussian (µ, σ) and a forward pass re-fits
// the consequents by least squares. check may be nil; with a check set the
// system is rolled back to the epoch with the lowest check error.
func Train(sys *fuzzy.TSK, train, check *Data, cfg Config) (*History, error) {
	cfg = cfg.withDefaults()
	if cfg.LearningRate < 0 || cfg.Epochs < 0 || cfg.Patience < 1 || cfg.Workers < 0 || cfg.DivergenceRetries < 0 {
		return nil, fmt.Errorf("anfis: invalid config %+v", cfg)
	}
	if err := train.Validate(sys.Inputs()); err != nil {
		return nil, fmt.Errorf("anfis: train set: %w", err)
	}
	if check != nil {
		if err := check.Validate(sys.Inputs()); err != nil {
			return nil, fmt.Errorf("anfis: check set: %w", err)
		}
	}

	pool := parallel.Auto(cfg.Workers, train.Len(), anfisCutoff)
	pool.Instrument(cfg.Metrics)

	hist := &History{}
	best := sys.Clone()
	bestErr := math.Inf(1)
	degraded := 0
	prevTrain := math.Inf(1)
	rate := cfg.LearningRate
	decreases := 0 // consecutive training-error decreases
	swings := 0    // consecutive decrease/increase alternations
	adaptive := cfg.AdaptiveRate
	startEpoch := 0
	if cfg.Resume != nil {
		st := cfg.Resume
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("anfis: resume: %w", err)
		}
		if err := train.Validate(st.Sys.Inputs()); err != nil {
			return nil, fmt.Errorf("anfis: resume state vs train set: %w", err)
		}
		if check != nil && len(st.CheckRMSE) == 0 && st.Epoch >= 0 {
			return nil, fmt.Errorf("anfis: resume state has no check history but a check set is given")
		}
		*sys = *st.Sys.Clone()
		best = st.Best.Clone()
		bestErr = st.BestError
		degraded = st.Degraded
		prevTrain = st.PrevTrain
		rate = st.Rate
		decreases = st.Decreases
		swings = st.Swings
		hist.BestEpoch = st.BestEpoch
		hist.TrainRMSE = append(hist.TrainRMSE, st.TrainRMSE...)
		hist.CheckRMSE = append(hist.CheckRMSE, st.CheckRMSE...)
		hist.LearningRates = append(hist.LearningRates, st.LearningRates...)
		startEpoch = st.Epoch + 1
	}

	forward := fitConsequents
	if cfg.ConstantConsequents {
		forward = fitConstantConsequents
	}
	var work fitWork // the forward pass's storage, reused every epoch
	snap, _ := cfg.Observer.(SnapshotObserver)
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		stepCfg := cfg
		stepCfg.LearningRate = rate
		backwardPass(sys, train, stepCfg, pool)
		if err := forward(sys, train, cfg.LSMethod, &work); err != nil {
			return nil, fmt.Errorf("anfis: forward pass at epoch %d: %w", epoch, err)
		}

		trainErr := rmseWith(sys, train, pool)
		stepRate := rate
		checkErr := 0.0
		if check != nil {
			checkErr = rmseWith(sys, check, pool)
		}
		if !isFinite(trainErr) || (check != nil && !isFinite(checkErr)) || !finiteParams(sys) {
			// Divergence: the step blew the parameters (or the error) out
			// of the finite domain. Nothing from this epoch is kept — not
			// even history entries, so checkpoints stay JSON-serializable.
			if cfg.Observer != nil {
				cfg.Observer.TrainEpoch(EpochEvent{
					Epoch:        epoch,
					TrainRMSE:    trainErr,
					CheckRMSE:    checkErr,
					HasCheck:     check != nil,
					LearningRate: stepRate,
					Diverged:     true,
				})
			}
			if hist.DivergenceRollbacks < cfg.DivergenceRetries {
				hist.DivergenceRollbacks++
				*sys = *best.Clone()
				// Reduced fixed step: the adaptive heuristic is what grows
				// the rate into the blow-up, so it stays off from here on.
				rate = math.Min(rate, cfg.LearningRate) * cfg.DivergenceShrink
				adaptive = false
				decreases, swings = 0, 0
				prevTrain = math.Inf(1)
				epoch-- // retry the same epoch index from the rollback
				continue
			}
			hist.Reason = StopDiverged
			break
		}
		hist.TrainRMSE = append(hist.TrainRMSE, trainErr)
		hist.LearningRates = append(hist.LearningRates, rate)
		if adaptive && epoch > 0 {
			prev := hist.TrainRMSE[epoch-1]
			if trainErr < prev {
				decreases++
				if swings > 0 {
					swings++
				}
			} else {
				decreases = 0
				swings++
			}
			// Jang's heuristic: sustained progress → larger steps;
			// oscillation → smaller steps.
			if decreases >= 4 {
				rate *= cfg.RateGrow
				decreases = 0
			}
			if swings >= 4 {
				rate *= cfg.RateShrink
				swings = 0
			}
		}

		scoreErr := trainErr
		if check != nil {
			hist.CheckRMSE = append(hist.CheckRMSE, checkErr)
			scoreErr = checkErr
		}
		isBest := scoreErr < bestErr
		if isBest {
			bestErr = scoreErr
			best = sys.Clone()
			hist.BestEpoch = epoch
			degraded = 0
		} else {
			degraded++
		}
		if cfg.Observer != nil {
			cfg.Observer.TrainEpoch(EpochEvent{
				Epoch:        epoch,
				TrainRMSE:    trainErr,
				CheckRMSE:    checkErr,
				HasCheck:     check != nil,
				LearningRate: stepRate,
				Best:         isBest,
			})
		}
		if !isBest && check != nil && degraded >= cfg.Patience {
			hist.Reason = StopCheckDegraded
			break
		}
		if math.Abs(prevTrain-trainErr) < cfg.Tol {
			hist.Reason = StopConverged
			break
		}
		prevTrain = trainErr
		if snap != nil {
			snap.TrainSnapshot(SnapshotEvent{
				State: &TrainState{
					Epoch:         epoch,
					Sys:           sys.Clone(),
					Best:          best.Clone(),
					BestEpoch:     hist.BestEpoch,
					BestError:     bestErr,
					Degraded:      degraded,
					PrevTrain:     prevTrain,
					Rate:          rate,
					Decreases:     decreases,
					Swings:        swings,
					TrainRMSE:     append([]float64(nil), hist.TrainRMSE...),
					CheckRMSE:     append([]float64(nil), hist.CheckRMSE...),
					LearningRates: append([]float64(nil), hist.LearningRates...),
				},
				Best: isBest,
			})
		}
	}
	if hist.Reason == "" {
		hist.Reason = StopEpochs
	}
	hist.BestError = bestErr
	// Roll back to the best snapshot.
	*sys = *best
	if cfg.Observer != nil {
		cfg.Observer.TrainStop(StopEvent{
			Reason:    hist.Reason,
			Epochs:    len(hist.TrainRMSE),
			BestEpoch: hist.BestEpoch,
			BestError: bestErr,
		})
	}
	return hist, nil
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// finiteParams reports whether every antecedent and consequent parameter of
// sys is finite. A diverging gradient can push µ (and with it the
// consequents fit against the resulting weights) to NaN/Inf while the RMSE
// stays finite — every sample then simply fires no rule and contributes the
// worst-case error of 1 — so divergence detection must look at the
// parameters, not just the error.
func finiteParams(sys *fuzzy.TSK) bool {
	for j := 0; j < sys.NumRules(); j++ {
		r := sys.Rule(j)
		for _, mf := range r.Antecedent {
			if !isFinite(mf.Mu) || !isFinite(mf.Sigma) {
				return false
			}
		}
		for _, c := range r.Coeffs {
			if !isFinite(c) {
				return false
			}
		}
	}
	return true
}

// backwardPass performs one batch gradient-descent step on every Gaussian
// membership parameter. For the Gaussian antecedents the chain rule gives,
// per sample with error e = S(v) − y and normalized context:
//
//	∂E/∂µ_ij = e · (f_j − S)/Σw · w_j · (v_i − µ_ij)/σ_ij²
//	∂E/∂σ_ij = e · (f_j − S)/Σw · w_j · (v_i − µ_ij)²/σ_ij³
//
// The w_j·GradF/F terms are folded analytically so vanishing membership
// degrees cause no division by zero.
//
// The gradient sum is chunked by sample index even when pool is serial:
// partials accumulate within fixed spans and merge in span order, so the
// float association — and hence the trained parameters — are bit-identical
// at every worker count.
func backwardPass(sys *fuzzy.TSK, train *Data, cfg Config, pool *parallel.Pool) {
	n := sys.Inputs()
	m := sys.NumRules()
	gradMu := make([][]float64, m)
	gradSigma := make([][]float64, m)
	for j := 0; j < m; j++ {
		gradMu[j] = make([]float64, n)
		gradSigma[j] = make([]float64, n)
	}
	rules := make([]fuzzy.Rule, m)
	for j := 0; j < m; j++ {
		rules[j] = sys.Rule(j)
	}

	count := 0
	// The error is always nil: the context is never cancelled. EvalDetail
	// is read-only on sys, and rules are only read until the merge is done.
	_ = parallel.ReduceOrdered(context.Background(), pool, train.Len(), gradGrain,
		func(s parallel.Span) gradPartial {
			part := newGradPartial(m, n)
			var detail fuzzy.Detail
			for idx := s.Lo; idx < s.Hi; idx++ {
				v := train.X[idx]
				if err := sys.EvalDetailInto(v, &detail); err != nil {
					continue // sample fires no rule: no gradient
				}
				part.count++
				e := detail.Output - train.Y[idx]
				for j := 0; j < m; j++ {
					common := e * (detail.Consequents[j] - detail.Output) / detail.WeightSum * detail.Weights[j]
					for i := 0; i < n; i++ {
						mf := rules[j].Antecedent[i]
						d := v[i] - mf.Mu
						s2 := mf.Sigma * mf.Sigma
						part.mu[j][i] += common * d / s2
						part.sigma[j][i] += common * d * d / (s2 * mf.Sigma)
					}
				}
			}
			return part
		},
		func(part gradPartial) {
			count += part.count
			for j := 0; j < m; j++ {
				for i := 0; i < n; i++ {
					gradMu[j][i] += part.mu[j][i]
					gradSigma[j][i] += part.sigma[j][i]
				}
			}
		})
	if count == 0 {
		return
	}
	scale := cfg.LearningRate / float64(count)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			rules[j].Antecedent[i].Mu -= scale * gradMu[j][i]
			sigma := rules[j].Antecedent[i].Sigma - scale*gradSigma[j][i]
			// The !(>=) form also floors NaN (all NaN comparisons are
			// false), which `sigma < MinSigma` would wave through — and a
			// NaN sigma fails rule validation and panics in SetRule.
			if !(sigma >= cfg.MinSigma) {
				sigma = cfg.MinSigma
			}
			rules[j].Antecedent[i].Sigma = sigma
		}
		// SetRule validates; the sigma floor guarantees success.
		if err := sys.SetRule(j, rules[j]); err != nil {
			panic(fmt.Sprintf("anfis: internal rule update failed: %v", err))
		}
	}
}

// gradPartial accumulates one chunk's share of the batch gradient.
type gradPartial struct {
	mu, sigma [][]float64
	count     int
}

func newGradPartial(m, n int) gradPartial {
	p := gradPartial{mu: make([][]float64, m), sigma: make([][]float64, m)}
	for j := 0; j < m; j++ {
		p.mu[j] = make([]float64, n)
		p.sigma[j] = make([]float64, n)
	}
	return p
}

// RMSE returns the root-mean-square error of the system over the data.
// Samples that activate no rule contribute the worst-case error of 1 so
// degenerate systems are penalized rather than hidden. Equivalent to
// RMSEParallel with a single worker.
func RMSE(sys *fuzzy.TSK, data *Data) float64 {
	return rmseWith(sys, data, parallel.New(1))
}

// RMSEParallel computes RMSE with up to workers goroutines (0 = one per
// CPU, falling back to serial below a size cutoff; 1 = serial). The
// result is bit-identical to RMSE at every worker count: the sum of
// squares is chunked by input shape and merged in chunk order either way.
func RMSEParallel(sys *fuzzy.TSK, data *Data, workers int) float64 {
	return rmseWith(sys, data, parallel.Auto(workers, data.Len(), anfisCutoff))
}

func rmseWith(sys *fuzzy.TSK, data *Data, pool *parallel.Pool) float64 {
	if data.Len() == 0 {
		return 0
	}
	var ss float64
	// The error is always nil — the context is never cancelled.
	_ = parallel.ReduceOrdered(context.Background(), pool, data.Len(), rmseGrain,
		func(s parallel.Span) float64 {
			var part float64
			for i := s.Lo; i < s.Hi; i++ {
				out, err := sys.Eval(data.X[i])
				if err != nil {
					part += 1
					continue
				}
				d := out - data.Y[i]
				part += d * d
			}
			return part
		},
		func(part float64) { ss += part })
	return math.Sqrt(ss / float64(data.Len()))
}
