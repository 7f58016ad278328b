package classify

import (
	"fmt"
	"math"
	"sort"

	"cqm/internal/dataset"
	"cqm/internal/sensor"
)

// Softmax is a multinomial logistic-regression classifier trained by
// batch gradient descent on standardized cues.
type Softmax struct {
	dim     int
	classes []sensor.Context
	// weights[k] holds the class-k coefficient vector plus bias term.
	weights [][]float64
	mean    []float64
	scale   []float64
	trained bool
}

// Compile-time interface check.
var _ Classifier = (*Softmax)(nil)

// Name returns "softmax".
func (s *Softmax) Name() string { return "softmax" }

// Classify returns the class with the highest logit.
func (s *Softmax) Classify(cues []float64) (sensor.Context, error) {
	if !s.trained {
		return sensor.ContextUnknown, ErrUntrained
	}
	if len(cues) != s.dim {
		return sensor.ContextUnknown, fmt.Errorf("%w: %d cues, want %d", ErrBadInput, len(cues), s.dim)
	}
	x := s.standardize(cues)
	best := sensor.ContextUnknown
	bestLogit := math.Inf(-1)
	for k, class := range s.classes {
		logit := s.weights[k][s.dim] // bias
		for j, v := range x {
			logit += s.weights[k][j] * v
		}
		if logit > bestLogit {
			best, bestLogit = class, logit
		}
	}
	return best, nil
}

// Probabilities returns the per-class softmax distribution for the cues,
// keyed by class, in training-class order.
//
//lint:ignore unused TestSoftmaxErrors checks it alongside Classify
func (s *Softmax) Probabilities(cues []float64) (map[sensor.Context]float64, error) {
	if !s.trained {
		return nil, ErrUntrained
	}
	if len(cues) != s.dim {
		return nil, fmt.Errorf("%w: %d cues, want %d", ErrBadInput, len(cues), s.dim)
	}
	x := s.standardize(cues)
	logits := make([]float64, len(s.classes))
	maxLogit := math.Inf(-1)
	for k := range s.classes {
		l := s.weights[k][s.dim]
		for j, v := range x {
			l += s.weights[k][j] * v
		}
		logits[k] = l
		if l > maxLogit {
			maxLogit = l
		}
	}
	var z float64
	for k := range logits {
		logits[k] = math.Exp(logits[k] - maxLogit)
		z += logits[k]
	}
	out := make(map[sensor.Context]float64, len(s.classes))
	for k, class := range s.classes {
		out[class] = logits[k] / z
	}
	return out, nil
}

func (s *Softmax) standardize(cues []float64) []float64 {
	x := make([]float64, len(cues))
	for j, v := range cues {
		x[j] = (v - s.mean[j]) / s.scale[j]
	}
	return x
}

// SoftmaxTrainer fits the model by full-batch gradient descent with L2
// regularization.
type SoftmaxTrainer struct {
	// Epochs is the gradient-descent iteration count. Default 300.
	Epochs int
	// LearningRate is the step size. Default 0.5.
	LearningRate float64
	// L2 is the ridge penalty on the weights (not the bias). Default 1e-3.
	L2 float64
}

// Compile-time interface check.
var _ Trainer = (*SoftmaxTrainer)(nil)

// Train fits the softmax model.
func (tr *SoftmaxTrainer) Train(set *dataset.Set) (Classifier, error) {
	dim, err := validateTrainingSet(set)
	if err != nil {
		return nil, err
	}
	epochs := tr.Epochs
	if epochs == 0 {
		epochs = 300
	}
	lr := tr.LearningRate
	if lr == 0 {
		lr = 0.5
	}
	l2 := tr.L2
	if l2 == 0 {
		l2 = 1e-3
	}
	if epochs < 1 || lr <= 0 || l2 < 0 {
		return nil, fmt.Errorf("%w: epochs %d lr %v l2 %v", ErrBadInput, epochs, lr, l2)
	}

	// Class inventory, sorted for determinism.
	classSet := make(map[sensor.Context]struct{})
	for _, smp := range set.Samples {
		if smp.Truth != sensor.ContextUnknown {
			classSet[smp.Truth] = struct{}{}
		}
	}
	classes := make([]sensor.Context, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	classIndex := make(map[sensor.Context]int, len(classes))
	for k, c := range classes {
		classIndex[c] = k
	}

	// Standardization statistics.
	mean := make([]float64, dim)
	scale := make([]float64, dim)
	n := float64(set.Len())
	for _, smp := range set.Samples {
		for j, v := range smp.Cues {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for _, smp := range set.Samples {
		for j, v := range smp.Cues {
			d := v - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / n)
		if scale[j] < 1e-9 {
			scale[j] = 1
		}
	}

	model := &Softmax{
		dim:     dim,
		classes: classes,
		mean:    mean,
		scale:   scale,
		trained: true,
	}
	model.weights = make([][]float64, len(classes))
	for k := range model.weights {
		model.weights[k] = make([]float64, dim+1)
	}

	// Pre-standardize the training matrix.
	xs := make([][]float64, set.Len())
	ys := make([]int, set.Len())
	for i, smp := range set.Samples {
		xs[i] = model.standardize(smp.Cues)
		ys[i] = classIndex[smp.Truth]
	}

	grads := make([][]float64, len(classes))
	for k := range grads {
		grads[k] = make([]float64, dim+1)
	}
	probs := make([]float64, len(classes))
	for epoch := 0; epoch < epochs; epoch++ {
		for k := range grads {
			for j := range grads[k] {
				grads[k][j] = 0
			}
		}
		for i, x := range xs {
			maxLogit := math.Inf(-1)
			for k := range classes {
				l := model.weights[k][dim]
				for j, v := range x {
					l += model.weights[k][j] * v
				}
				probs[k] = l
				if l > maxLogit {
					maxLogit = l
				}
			}
			var z float64
			for k := range probs {
				probs[k] = math.Exp(probs[k] - maxLogit)
				z += probs[k]
			}
			for k := range classes {
				p := probs[k] / z
				err := p
				if k == ys[i] {
					err -= 1
				}
				for j, v := range x {
					grads[k][j] += err * v
				}
				grads[k][dim] += err
			}
		}
		for k := range classes {
			for j := 0; j <= dim; j++ {
				g := grads[k][j] / n
				if j < dim {
					g += l2 * model.weights[k][j]
				}
				model.weights[k][j] -= lr * g
			}
		}
	}
	return model, nil
}
