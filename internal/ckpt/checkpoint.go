package ckpt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cqm/internal/anfis"
	"cqm/internal/obs"
)

// Checkpoint resolution errors.
var (
	// ErrNoCheckpoint reports a checkpoint directory with no usable
	// checkpoint (missing, empty, or everything corrupt).
	ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint")
	// ErrConfigMismatch reports a checkpoint written under a different
	// training configuration than the resume requested. Resuming across a
	// config change would silently blend two training runs, so it is
	// refused rather than skipped.
	ErrConfigMismatch = errors.New("ckpt: checkpoint config hash mismatch")
)

// bestCheckpointName is the best-so-far checkpoint file, overwritten
// atomically whenever an epoch becomes the kept snapshot.
const bestCheckpointName = "ckpt-best.json"

// CheckpointPath returns the periodic checkpoint file for an epoch.
func CheckpointPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%06d.json", epoch))
}

// BestCheckpointPath returns the best-so-far checkpoint file.
func BestCheckpointPath(dir string) string {
	return filepath.Join(dir, bestCheckpointName)
}

// CheckpointConfig parameterizes a Checkpointer.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; created if missing.
	Dir string
	// Interval writes a periodic checkpoint every Interval epochs.
	// Default 1 (every epoch — the cadence exact kill-resume needs).
	Interval int
	// ConfigHash, when non-empty, is stamped into every checkpoint
	// manifest so LatestState can refuse resumes across a config change.
	ConfigHash string
	// Now supplies manifest timestamps; nil leaves CreatedAt zero. The
	// clock is injected so checkpointing stays deterministic in tests and
	// simulations.
	Now func() time.Time
	// Metrics, when non-nil, counts writes, write errors, and divergence
	// rollbacks on this registry.
	Metrics *obs.Registry
}

// Checkpointer persists ANFIS training state through the
// TrainObserver/SnapshotObserver hook path: a periodic checkpoint every
// Interval epochs plus a best-so-far checkpoint whenever the kept snapshot
// changes. Write failures never interrupt training — they increment a
// counter and the run continues on the previous checkpoint cadence.
type Checkpointer struct {
	cfg CheckpointConfig
	met ckptMetrics

	mu        sync.Mutex
	last      *anfis.TrainState
	writeErrs int
}

// NewCheckpointer creates the checkpoint directory and returns a
// checkpointer ready to be passed as (part of) an anfis Observer.
func NewCheckpointer(cfg CheckpointConfig) (*Checkpointer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ckpt: checkpoint dir must be set")
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("ckpt: checkpoint interval %d", cfg.Interval)
	}
	if cfg.Interval == 0 {
		cfg.Interval = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating checkpoint dir: %w", err)
	}
	return &Checkpointer{cfg: cfg, met: newCkptMetrics(cfg.Metrics)}, nil
}

// TrainEpoch implements anfis.TrainObserver; it counts divergence
// rollbacks (the state capture itself arrives through TrainSnapshot).
func (c *Checkpointer) TrainEpoch(ev anfis.EpochEvent) {
	if ev.Diverged {
		c.met.divergence.Inc()
	}
}

// TrainStop implements anfis.TrainObserver. A stop writes nothing: resume
// starts from the checkpoints the snapshots wrote.
func (c *Checkpointer) TrainStop(anfis.StopEvent) {}

// TrainSnapshot implements anfis.SnapshotObserver: it keeps the newest
// finite state in memory and writes the periodic and best-so-far
// checkpoint artifacts.
func (c *Checkpointer) TrainSnapshot(ev anfis.SnapshotEvent) {
	st := ev.State
	if st == nil || !stateFinite(st) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = st
	if st.Epoch%c.cfg.Interval == 0 {
		c.write(CheckpointPath(c.cfg.Dir, st.Epoch), st)
	}
	if ev.Best {
		c.write(BestCheckpointPath(c.cfg.Dir), st)
	}
}

// write persists one checkpoint artifact; failures are counted, not fatal.
func (c *Checkpointer) write(path string, st *anfis.TrainState) {
	man := Manifest{
		Kind:       KindCheckpoint,
		ConfigHash: c.cfg.ConfigHash,
		Epoch:      st.Epoch,
		BestEpoch:  st.BestEpoch,
		TrainRMSE:  st.TrainRMSE[len(st.TrainRMSE)-1],
	}
	if len(st.CheckRMSE) > 0 {
		man.CheckRMSE = st.CheckRMSE[len(st.CheckRMSE)-1]
	}
	if c.cfg.Now != nil {
		man.CreatedAt = c.cfg.Now()
	}
	if err := WriteArtifact(path, man, st); err != nil {
		c.writeErrs++
		c.met.writeErrors.Inc()
		return
	}
	c.met.writes.Inc()
}

// LastState returns a copy of the newest finite state seen, or nil before
// the first completed epoch. It reads out the run for callers and tests;
// nothing restarts from it (resume reads the checkpoint files).
//
//lint:ignore unused the checkpointer tests probe the last snapshot with it
func (c *Checkpointer) LastState() *anfis.TrainState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last.Clone()
}

// WriteErrors returns the number of checkpoint writes that failed.
func (c *Checkpointer) WriteErrors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeErrs
}

// stateFinite reports whether every scalar in the state serializes to
// JSON — i.e. is neither NaN nor ±Inf. Train never snapshots a diverged
// epoch, but a finite-RMSE state can still carry non-finite parameters in
// pathological cases, and a checkpoint that cannot round-trip is worse
// than none.
func stateFinite(st *anfis.TrainState) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	if !finite(st.BestError) || !finite(st.PrevTrain) || !finite(st.Rate) {
		return false
	}
	for _, v := range st.TrainRMSE {
		if !finite(v) {
			return false
		}
	}
	for _, v := range st.CheckRMSE {
		if !finite(v) {
			return false
		}
	}
	for _, v := range st.LearningRates {
		if !finite(v) {
			return false
		}
	}
	return true
}

// Resume is the result of locating the newest usable checkpoint.
type Resume struct {
	// State is the training state to hand to anfis.Config.Resume.
	State *anfis.TrainState
	// Manifest is the checkpoint artifact's manifest.
	Manifest Manifest
	// Skipped counts corrupt or invalid checkpoint files that were
	// bypassed (each also increments cqm_ckpt_skipped_total).
	Skipped int
}

// LatestState locates the newest usable checkpoint in dir: periodic
// checkpoint files are tried newest-epoch-first, corrupt or invalid ones
// are skipped with a warning counter, and the first one that decodes and
// validates wins. A non-empty configHash must match the checkpoint's
// manifest (ErrConfigMismatch otherwise); ErrNoCheckpoint reports that
// nothing usable exists.
func LatestState(dir, configHash string, reg *obs.Registry) (*Resume, error) {
	met := newCkptMetrics(reg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoCheckpoint, err)
	}
	type candidate struct {
		epoch int
		name  string
	}
	var cands []candidate
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".json") || name == bestCheckpointName {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".json")
		epoch, err := strconv.Atoi(num)
		if err != nil || epoch < 0 {
			continue
		}
		cands = append(cands, candidate{epoch: epoch, name: name})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no checkpoint files in %s", ErrNoCheckpoint, dir)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].epoch > cands[j].epoch })
	met.resumes.Inc()
	skipped := 0
	for _, cand := range cands {
		var st anfis.TrainState
		man, err := ReadArtifact(filepath.Join(dir, cand.name), KindCheckpoint, &st)
		if err == nil && configHash != "" && man.ConfigHash != configHash {
			return nil, fmt.Errorf("%w: checkpoint %s has hash %q, current config %q",
				ErrConfigMismatch, cand.name, man.ConfigHash, configHash)
		}
		if err == nil {
			err = st.Validate()
		}
		if err == nil && st.Epoch != cand.epoch {
			err = fmt.Errorf("%w: file %s claims epoch %d", ErrCorrupt, cand.name, st.Epoch)
		}
		if err != nil {
			skipped++
			met.skipped.Inc()
			continue
		}
		return &Resume{State: &st, Manifest: man, Skipped: skipped}, nil
	}
	return nil, fmt.Errorf("%w: all %d checkpoint files in %s are corrupt",
		ErrNoCheckpoint, len(cands), dir)
}
