// Package linalg provides the small ridge-regression kernels the
// hierarchical linear model fits with: one-pass sums that hold no row, for
// one feature (LineSums) and for up to MaxFeatures (Sums), each solved in
// closed form or by a fixed-size Cholesky factorisation into a value that
// carries no pointer.
//
// The reproduction bands flag Go's scientific stack as weak, so everything
// here is hand-rolled on the standard library. The systems are tiny (the
// HLM regresses each road on a handful of correlated roads), so nothing is
// allocated and clarity beats blocking and SIMD tricks.
package linalg

import "errors"

// ErrNotPositiveDefinite is returned when a ridge system cannot be
// factorised: a non-finite feature leaves a pivot NaN.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrNoSamples is returned when a fit is asked of no training rows.
var ErrNoSamples = errors.New("linalg: no training samples")
