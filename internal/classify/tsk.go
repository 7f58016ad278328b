package classify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cqm/internal/anfis"
	"cqm/internal/cluster"
	"cqm/internal/dataset"
	"cqm/internal/fuzzy"
	"cqm/internal/sensor"
)

// TSK is the AwarePen's own classifier: a TSK-FIS maps the cue vector onto
// a continuous value that is rounded to the nearest class identifier
// (paper §3.1: "a TSK-FIS is used that maps standard deviations from three
// acceleration sensor outputs onto context classes").
type TSK struct {
	sys     *fuzzy.TSK
	classes []sensor.Context
}

// Compile-time interface check.
var _ Classifier = (*TSK)(nil)

// Name returns "tsk-fis".
func (t *TSK) Name() string { return "tsk-fis" }

// System returns the underlying fuzzy system (for inspection and
// serialization); mutating the returned system mutates the classifier.
//
//lint:ignore unused TestTSKClassesSorted probes the trained classifier with it
func (t *TSK) System() *fuzzy.TSK { return t.sys }

// Classes returns the contexts the classifier can produce, in identifier
// order.
//
//lint:ignore unused TestTSKClassesSorted probes the trained classifier with it
func (t *TSK) Classes() []sensor.Context {
	out := make([]sensor.Context, len(t.classes))
	copy(out, t.classes)
	return out
}

// Classify evaluates the FIS and rounds to the nearest known class
// identifier. Inputs that fire no rule are mapped to ContextUnknown with a
// nil error: an online appliance must keep running on out-of-range cues.
func (t *TSK) Classify(cues []float64) (sensor.Context, error) {
	if t.sys == nil || len(t.classes) == 0 {
		return sensor.ContextUnknown, ErrUntrained
	}
	out, err := t.sys.Eval(cues)
	if err != nil {
		if errors.Is(err, fuzzy.ErrNoActivation) {
			return sensor.ContextUnknown, nil
		}
		return sensor.ContextUnknown, fmt.Errorf("classify: TSK eval: %w", err)
	}
	best := t.classes[0]
	bestDist := math.Abs(out - float64(best.ID()))
	for _, c := range t.classes[1:] {
		if d := math.Abs(out - float64(c.ID())); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, nil
}

// TSKTrainer builds the classifier with the same automated pipeline as the
// quality FIS: subtractive clustering, least squares, optional ANFIS
// hybrid-learning refinement.
type TSKTrainer struct {
	// Clustering configures rule extraction; the zero value uses Chiu's
	// defaults.
	Clustering cluster.SubtractiveConfig
	// Hybrid enables ANFIS refinement after the initial construction.
	Hybrid bool
	// HybridConfig configures the refinement when Hybrid is set; the zero
	// value uses the anfis defaults.
	HybridConfig anfis.Config
}

// Compile-time interface check.
var _ Trainer = (*TSKTrainer)(nil)

// Train fits the TSK classifier. Targets are the numeric class
// identifiers, exactly like the AwarePen's pre-trained system.
func (tr *TSKTrainer) Train(set *dataset.Set) (Classifier, error) {
	if _, err := validateTrainingSet(set); err != nil {
		return nil, err
	}
	data := &anfis.Data{X: set.Cues(), Y: make([]float64, set.Len())}
	classSet := make(map[sensor.Context]struct{})
	for i, smp := range set.Samples {
		data.Y[i] = float64(smp.Truth.ID())
		classSet[smp.Truth] = struct{}{}
	}
	delete(classSet, sensor.ContextUnknown)
	classes := make([]sensor.Context, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	sys, err := anfis.Build(data, anfis.BuildConfig{Clustering: tr.Clustering})
	if err != nil {
		return nil, fmt.Errorf("classify: building TSK classifier: %w", err)
	}
	if tr.Hybrid {
		if _, err := anfis.Train(sys, data, nil, tr.HybridConfig); err != nil {
			return nil, fmt.Errorf("classify: refining TSK classifier: %w", err)
		}
	}
	return &TSK{sys: sys, classes: classes}, nil
}
