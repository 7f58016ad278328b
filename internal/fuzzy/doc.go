// Package fuzzy implements the fuzzy-logic substrate of the CQM system:
// Takagi–Sugeno–Kang (TSK) fuzzy inference systems with Gaussian
// antecedents and linear consequents (paper §2.1.2).
//
// A TSK rule j over the input v_Q = (v_1, …, v_n, c) reads
//
//	IF F_1j(v_1) AND … AND F_(n+1)j(c) THEN f_j(v_Q)
//
// with Gaussian membership functions F_ij(x) = exp(−(x−µ_ij)²/(2σ_ij²)) and
// linear consequents f_j(v_Q) = a_1j·v_1 + … + a_(n+1)j·c + a_(n+2)j. The
// system output is the weighted sum average
//
//	S(v) = Σ_j w_j(v)·f_j(v) / Σ_j w_j(v),  w_j(v) = Π_i F_ij(v_i),
//
// which combines fuzzy reasoning and defuzzification in one step.
//
// The same TSK machinery serves both roles in the paper's architecture:
// the AwarePen's own context classifier and the quality FIS S_Q stacked on
// top of it.
package fuzzy
