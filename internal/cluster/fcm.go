package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// FCMConfig parameterizes fuzzy c-means.
type FCMConfig struct {
	// C is the number of clusters; required.
	C int
	// Fuzziness is the exponent m > 1 controlling membership softness.
	// Default 2.
	Fuzziness float64
	// MaxIter bounds the alternating optimization. Default 200.
	MaxIter int
	// Tol stops iteration when the membership matrix changes less than Tol
	// in max norm. Default 1e-6.
	Tol float64
	// Seed drives the deterministic random membership initialization.
	Seed int64
}

func (c FCMConfig) withDefaults() FCMConfig {
	if c.Fuzziness == 0 {
		c.Fuzziness = 2
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	return c
}

// FCMResult describes a fuzzy c-means clustering.
type FCMResult struct {
	Centers [][]float64
	// Memberships[i][k] is the degree to which point i belongs to cluster
	// k; each row sums to 1.
	Memberships [][]float64
	Iterations  int
	// Objective is the final weighted within-cluster scatter J_m.
	Objective float64
}

// FCM runs fuzzy c-means (Bezdek) with random membership initialization.
func FCM(data [][]float64, cfg FCMConfig) (*FCMResult, error) {
	cfg = cfg.withDefaults()
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if cfg.C <= 0 || cfg.C > len(data) {
		return nil, fmt.Errorf("%w: c=%d for %d points", ErrBadParam, cfg.C, len(data))
	}
	if cfg.Fuzziness <= 1 {
		return nil, fmt.Errorf("%w: fuzziness %v must exceed 1", ErrBadParam, cfg.Fuzziness)
	}
	dims := len(data[0])
	for i, row := range data {
		if len(row) != dims {
			return nil, fmt.Errorf("%w: row %d has %d dims, want %d", ErrRagged, i, len(row), dims)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(data)
	u := make([][]float64, n)
	for i := range u {
		row := make([]float64, cfg.C)
		var sum float64
		for k := range row {
			row[k] = rng.Float64() + 1e-9
			sum += row[k]
		}
		for k := range row {
			row[k] /= sum
		}
		u[i] = row
	}

	centers := make([][]float64, cfg.C)
	for k := range centers {
		centers[k] = make([]float64, dims)
	}
	m := cfg.Fuzziness
	var iter int
	for iter = 0; iter < cfg.MaxIter; iter++ {
		// Update centers: v_k = Σ_i u_ik^m x_i / Σ_i u_ik^m.
		for k := 0; k < cfg.C; k++ {
			var denom float64
			num := make([]float64, dims)
			for i, p := range data {
				w := math.Pow(u[i][k], m)
				denom += w
				for d, v := range p {
					num[d] += w * v
				}
			}
			if denom == 0 {
				denom = 1e-12
			}
			for d := range num {
				num[d] /= denom
			}
			centers[k] = num
		}
		// Update memberships.
		var maxDelta float64
		exp := 2 / (m - 1)
		for i, p := range data {
			// Exact-hit handling: full membership to coincident centers.
			hit := -1
			for k, c := range centers {
				if sqDist(p, c) == 0 {
					hit = k
					break
				}
			}
			newRow := make([]float64, cfg.C)
			if hit >= 0 {
				newRow[hit] = 1
			} else {
				for k := range centers {
					dk := math.Sqrt(sqDist(p, centers[k]))
					var sum float64
					for l := range centers {
						dl := math.Sqrt(sqDist(p, centers[l]))
						sum += math.Pow(dk/dl, exp)
					}
					newRow[k] = 1 / sum
				}
			}
			for k := range newRow {
				if d := math.Abs(newRow[k] - u[i][k]); d > maxDelta {
					maxDelta = d
				}
			}
			u[i] = newRow
		}
		if maxDelta <= cfg.Tol {
			iter++
			break
		}
	}

	var obj float64
	for i, p := range data {
		for k, c := range centers {
			obj += math.Pow(u[i][k], m) * sqDist(p, c)
		}
	}
	return &FCMResult{
		Centers:     centers,
		Memberships: u,
		Iterations:  iter,
		Objective:   obj,
	}, nil
}
