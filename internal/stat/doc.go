// Package stat implements the statistical analysis layer of the CQM paper
// (§2.3): maximum-likelihood estimation of Gaussian densities for the
// quality values of right and wrong classifications, the optimal threshold
// at the intersection of the two densities, and the acceptance/rejection
// probabilities computed from Gaussian CDF "median cuts".
//
// It also provides the generic statistical utilities the rest of the
// repository needs: descriptive statistics, kernel density estimates, a
// paired bootstrap for confidence intervals, online moments, and ROC/AUC
// analysis for evaluating quality thresholds.
package stat
