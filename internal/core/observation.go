package core

import (
	"errors"
	"fmt"

	"cqm/internal/classify"
	"cqm/internal/dataset"
	"cqm/internal/sensor"
)

// CQM construction errors.
var (
	// ErrNoObservations reports construction or analysis without data.
	ErrNoObservations = errors.New("core: no observations")
	// ErrOneSided reports an analysis set whose classifications are all
	// right or all wrong — the two densities of §2.3 cannot be estimated.
	ErrOneSided = errors.New("core: observations are all right or all wrong")
	// ErrUnbuilt reports use of a Measure that was never built.
	ErrUnbuilt = errors.New("core: quality measure is not built")
)

// Observation is one classified sample with secondary knowledge: the cues
// the classifier consumed, the class it produced, and whether that was
// correct. The automated construction (§2.2) and the statistical analysis
// (§2.3.1) both require this secondary knowledge; online scoring does not.
type Observation struct {
	// Cues is the classifier input v_C.
	Cues []float64
	// Class is the classifier's output c.
	Class sensor.Context
	// Correct reports whether Class matches the ground truth.
	Correct bool
	// Pure reports whether the originating window was transition-free
	// (carried through from the dataset for reporting).
	Pure bool
}

// Observe runs the black-box classifier over a labelled set and records,
// per sample, the produced class and its correctness. This is the only
// coupling between the quality system and the classifier: input cues and
// output class, nothing else.
func Observe(clf classify.Classifier, set *dataset.Set) ([]Observation, error) {
	if set == nil || set.Len() == 0 {
		return nil, ErrNoObservations
	}
	out := make([]Observation, 0, set.Len())
	for i, smp := range set.Samples {
		class, err := clf.Classify(smp.Cues)
		if err != nil {
			return nil, fmt.Errorf("core: classifying sample %d: %w", i, err)
		}
		cues := make([]float64, len(smp.Cues))
		copy(cues, smp.Cues)
		out = append(out, Observation{
			Cues:    cues,
			Class:   class,
			Correct: class == smp.Truth,
			Pure:    smp.Pure,
		})
	}
	return out, nil
}

// AugmentObservations builds the exhaustive counterfactual training set
// for a labelled sample set: one observation per (sample, class) pair,
// correct exactly when the class matches the ground truth. The designated
// output of the quality FIS is defined for any such pairing (§2.2), so
// this is a valid training superset; it calibrates S_Q on pairings the
// classifier itself never produces, which the context-prediction extension
// (paper §5, package predict) needs to score alternative classes
// meaningfully.
func AugmentObservations(set *dataset.Set, classes []sensor.Context) ([]Observation, error) {
	if set == nil || set.Len() == 0 {
		return nil, ErrNoObservations
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes to augment with", ErrNoObservations)
	}
	out := make([]Observation, 0, set.Len()*len(classes))
	for _, smp := range set.Samples {
		for _, c := range classes {
			cues := make([]float64, len(smp.Cues))
			copy(cues, smp.Cues)
			out = append(out, Observation{
				Cues:    cues,
				Class:   c,
				Correct: c == smp.Truth,
				Pure:    smp.Pure,
			})
		}
	}
	return out, nil
}

// SplitByCorrectness partitions observations into right and wrong ones.
func SplitByCorrectness(obs []Observation) (right, wrong []Observation) {
	for _, o := range obs {
		if o.Correct {
			right = append(right, o)
		} else {
			wrong = append(wrong, o)
		}
	}
	return right, wrong
}

// qualityInput builds v_Q = (v_1, …, v_n, c) for one observation.
func qualityInput(cues []float64, class sensor.Context) []float64 {
	v := make([]float64, len(cues)+1)
	copy(v, cues)
	v[len(cues)] = float64(class.ID())
	return v
}
