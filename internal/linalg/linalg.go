// Package linalg provides the small dense linear-algebra kernel used by the
// hierarchical linear model: column-major-free dense matrices, Cholesky
// factorisation and ridge-regularised least squares.
//
// The reproduction bands flag Go's scientific stack as weak, so everything
// here is hand-rolled on the standard library. Matrices are small (the HLM
// regresses each road on a handful of correlated neighbours), so clarity
// beats blocking and SIMD tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// AddDiagonal adds lambda to every diagonal element in place, returning m.
func (m *Matrix) AddDiagonal(lambda float64) *Matrix {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += lambda
	}
	return m
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive definite A. A is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky needs a square matrix, got %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A, by forward
// then backward substitution.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: factor is %dx%d but rhs has %d entries", ErrShape, n, n, len(b))
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// Solve solves A·x = b for symmetric positive definite A.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b)
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
