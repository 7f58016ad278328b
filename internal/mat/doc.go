// Package mat provides the dense linear-algebra substrate used by the CQM
// pipeline: matrices, vectors, Householder QR, one-sided Jacobi SVD, and
// least-squares solving.
//
// The package is deliberately small and self-contained (stdlib only). The
// matrices produced by the CQM training pipeline are tall and thin — design
// matrices with one row per training sample and one column per consequent
// parameter — so the implementations favour numerical robustness over
// asymptotic cleverness. One-sided Jacobi SVD in particular is simple and
// accurate for these shapes.
//
// All operations are value-safe: no function retains or aliases caller
// slices unless documented otherwise.
package mat
