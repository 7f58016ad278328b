// Package cluster implements the structure-identification algorithms the
// CQM paper builds its fuzzy systems with (§2.2.1).
//
// The paper selects subtractive clustering (Chiu 1994) because it needs no
// prior cluster count and no grid: every data point is a candidate cluster
// center. Each cluster found becomes one TSK rule; the cluster center and
// the neighbourhood radius define the initial Gaussian membership
// functions.
//
// Mountain clustering (Yager & Filev) and fuzzy c-means are implemented
// alongside for the ablation experiments that justify the paper's choice.
package cluster
