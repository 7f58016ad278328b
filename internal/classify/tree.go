package classify

import (
	"fmt"
	"sort"

	"cqm/internal/dataset"
	"cqm/internal/sensor"
)

// DecisionTree is a CART-style classification tree over cue vectors —
// another black box for the agnosticism experiments, and the kind of
// lightweight classifier an embedded Particle node could actually run.
type DecisionTree struct {
	root    *treeNode
	dim     int
	trained bool
}

// treeNode is one node: either a split (Feature/Threshold with children)
// or a leaf (Class).
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	class     sensor.Context
	leaf      bool
}

// Compile-time interface check.
var _ Classifier = (*DecisionTree)(nil)

// Name returns "decision-tree".
func (dt *DecisionTree) Name() string { return "decision-tree" }

// Classify walks the tree to a leaf.
func (dt *DecisionTree) Classify(cues []float64) (sensor.Context, error) {
	if !dt.trained {
		return sensor.ContextUnknown, ErrUntrained
	}
	if len(cues) != dt.dim {
		return sensor.ContextUnknown, fmt.Errorf("%w: %d cues, want %d", ErrBadInput, len(cues), dt.dim)
	}
	node := dt.root
	for !node.leaf {
		if cues[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.class, nil
}

// Depth returns the tree height (a leaf-only tree has depth 1).
//
//lint:ignore unused TestDecisionTreeDepthBound checks MaxDepth through it
func (dt *DecisionTree) Depth() int {
	return depthOf(dt.root)
}

func depthOf(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// DecisionTreeTrainer grows a CART tree by Gini impurity.
type DecisionTreeTrainer struct {
	// MaxDepth bounds the tree height. Default 6.
	MaxDepth int
	// MinSamples stops splitting below this node size. Default 4.
	MinSamples int
}

// Compile-time interface check.
var _ Trainer = (*DecisionTreeTrainer)(nil)

// Train grows the tree.
func (tr *DecisionTreeTrainer) Train(set *dataset.Set) (Classifier, error) {
	dim, err := validateTrainingSet(set)
	if err != nil {
		return nil, err
	}
	maxDepth := tr.MaxDepth
	if maxDepth == 0 {
		maxDepth = 6
	}
	minSamples := tr.MinSamples
	if minSamples == 0 {
		minSamples = 4
	}
	if maxDepth < 1 || minSamples < 1 {
		return nil, fmt.Errorf("%w: depth %d, min samples %d", ErrBadInput, maxDepth, minSamples)
	}
	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}
	root := grow(set, idx, dim, maxDepth, minSamples)
	return &DecisionTree{root: root, dim: dim, trained: true}, nil
}

// grow recursively builds the subtree for the samples in idx.
func grow(set *dataset.Set, idx []int, dim, depth, minSamples int) *treeNode {
	majority, pure := majorityClass(set, idx)
	if depth <= 1 || len(idx) < minSamples || pure {
		return &treeNode{leaf: true, class: majority}
	}
	feature, threshold, ok := bestSplit(set, idx, dim)
	if !ok {
		return &treeNode{leaf: true, class: majority}
	}
	var left, right []int
	for _, i := range idx {
		if set.Samples[i].Cues[feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, class: majority}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      grow(set, left, dim, depth-1, minSamples),
		right:     grow(set, right, dim, depth-1, minSamples),
	}
}

// majorityClass returns the most frequent class among idx (ties toward
// the smaller identifier) and whether the node is pure.
func majorityClass(set *dataset.Set, idx []int) (sensor.Context, bool) {
	counts := make(map[sensor.Context]int, 3)
	for _, i := range idx {
		counts[set.Samples[i].Truth]++
	}
	best := sensor.ContextUnknown
	bestN := -1
	for _, c := range sensor.AllContexts() {
		if n := counts[c]; n > bestN {
			best, bestN = c, n
		}
	}
	return best, len(counts) == 1
}

// bestSplit scans every feature's candidate thresholds (midpoints between
// consecutive distinct sorted values) for the lowest weighted Gini.
func bestSplit(set *dataset.Set, idx []int, dim int) (feature int, threshold float64, ok bool) {
	bestGini := gini(set, idx)
	if bestGini == 0 {
		return 0, 0, false
	}
	found := false
	values := make([]float64, 0, len(idx))
	for f := 0; f < dim; f++ {
		values = values[:0]
		for _, i := range idx {
			values = append(values, set.Samples[i].Cues[f])
		}
		sort.Float64s(values)
		for k := 1; k < len(values); k++ {
			if values[k] == values[k-1] { //lint:ignore floatcmp dedupe of identical values in a sorted slice is exact by construction
				continue
			}
			thr := 0.5 * (values[k] + values[k-1])
			var left, right []int
			for _, i := range idx {
				if set.Samples[i].Cues[f] <= thr {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			w := float64(len(left))/float64(len(idx))*gini(set, left) +
				float64(len(right))/float64(len(idx))*gini(set, right)
			if w < bestGini-1e-12 {
				bestGini = w
				feature, threshold, found = f, thr, true
			}
		}
	}
	return feature, threshold, found
}

// gini returns the Gini impurity of the samples in idx.
func gini(set *dataset.Set, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	counts := make(map[sensor.Context]int, 3)
	for _, i := range idx {
		counts[set.Samples[i].Truth]++
	}
	impurity := 1.0
	n := float64(len(idx))
	for _, c := range counts {
		p := float64(c) / n
		impurity -= p * p
	}
	return impurity
}
