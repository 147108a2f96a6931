package linalg

// The three-pass ridge fit and the dense matrix stack under it, which fitted
// the seed-conditional regressions before Sums: they centre the rows, build
// the normal equations in a matrix and solve them by Cholesky. The tests
// keep them as the reference Sums and LineSums are held to.

import (
	"errors"
	"fmt"
	"math"
)

// ridgeModel is a fitted linear model y ≈ Intercept + Σ Coef[j]·x[j].
type ridgeModel struct {
	Intercept float64
	Coef      []float64
	// RMSE is the root-mean-squared training residual; callers use it to
	// weigh this model against fallbacks.
	RMSE float64
	// N is the number of training samples.
	N int
}

// Predict evaluates the model at x, which must have len(Coef) features.
func (m *ridgeModel) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("%w: model has %d features, input has %d", errShape, len(m.Coef), len(x))
	}
	return m.Intercept + dot(m.Coef, x), nil
}

// refRidgeFit fits y ≈ w₀ + Σ wⱼ xⱼ with an L2 penalty lambda on the weights
// (the intercept is not penalised, implemented by centring). x is the n×p
// design matrix, row-major and flat (row i is x[i*p:(i+1)*p]); y has n
// responses. lambda must be ≥ 0; a small positive lambda also guarantees the
// normal equations are solvable when features are collinear, which happens
// constantly with neighbouring road speeds.
func refRidgeFit(x []float64, p int, y []float64, lambda float64) (*ridgeModel, error) {
	if err := checkFit(x, p, y, lambda); err != nil {
		return nil, err
	}
	if p == 1 {
		l, err := ridgeLine(x, y, lambda)
		if err != nil {
			return nil, err
		}
		return &ridgeModel{Intercept: l.Intercept, Coef: []float64{l.Slope}, RMSE: l.RMSE, N: l.N}, nil
	}
	return ridgeFit(x, p, y, lambda)
}

// checkFit validates refRidgeFit's inputs.
func checkFit(x []float64, p int, y []float64, lambda float64) error {
	n := len(y)
	if p < 0 || len(x) != n*p {
		return fmt.Errorf("%w: %d design values for %d responses of %d features", errShape, len(x), n, p)
	}
	if n == 0 {
		return ErrNoSamples
	}
	if lambda < 0 {
		return fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	return nil
}

// ridgeFit is the general path of refRidgeFit over validated inputs.
func ridgeFit(x []float64, p int, y []float64, lambda float64) (*ridgeModel, error) {
	n := len(y)
	if p == 0 {
		// Intercept-only model.
		m := &ridgeModel{Intercept: mean(y), Coef: nil, N: n}
		var sse float64
		for _, yv := range y {
			d := yv - m.Intercept
			sse += d * d
		}
		m.RMSE = rmseOf(sse, n)
		return m, nil
	}

	// Centre features and response so the intercept absorbs the means and
	// stays unpenalised.
	xMean := make([]float64, p)
	for i := 0; i < n; i++ {
		for j, v := range x[i*p : (i+1)*p] {
			xMean[j] += v
		}
	}
	for j := range xMean {
		xMean[j] /= float64(n)
	}
	yMean := mean(y)

	// Normal equations on centred data: (XᵀX + λI)·w = Xᵀy.
	xtx := newMatrix(p, p)
	xty := make([]float64, p)
	cr := make([]float64, p)
	for i := 0; i < n; i++ {
		for j, v := range x[i*p : (i+1)*p] {
			cr[j] = v - xMean[j]
		}
		cy := y[i] - yMean
		for a := 0; a < p; a++ {
			//lint:ignore floateq exact-zero sparsity skip: only terms contributing exactly nothing are skipped
			if cr[a] == 0 {
				continue
			}
			xty[a] += cr[a] * cy
			for b := a; b < p; b++ {
				xtx.data[a*p+b] += cr[a] * cr[b]
			}
		}
	}
	for a := 0; a < p; a++ { // mirror the upper triangle
		for b := a + 1; b < p; b++ {
			xtx.data[b*p+a] = xtx.data[a*p+b]
		}
	}
	// Always add a tiny jitter on top of lambda so exactly-collinear columns
	// (duplicate neighbour speeds) do not break the factorisation.
	xtx.AddDiagonal(lambda + 1e-9)

	w, err := solve(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge solve failed: %w", err)
	}
	m := &ridgeModel{
		Intercept: yMean - dot(w, xMean),
		Coef:      w,
		N:         n,
	}
	var sse float64
	for i := 0; i < n; i++ {
		pred, _ := m.Predict(x[i*p : (i+1)*p])
		d := y[i] - pred
		sse += d * d
	}
	m.RMSE = rmseOf(sse, n)
	return m, nil
}

// ridgeLine is ridgeFit for p = 1 without the matrix and vector
// scaffolding. It performs the general path's floating-point operations in
// the general path's order, so both return bit-identical models: the means
// sum x and y in one loop but
// each in its own accumulator, the 1×1 Cholesky solve divides by
// √(Sxx+λ+1e-9) twice rather than once by Sxx+λ+1e-9, and every Dot starts
// from a zero accumulator.
func ridgeLine(x, y []float64, lambda float64) (Line, error) {
	n := len(y)
	y = y[:len(x)]
	var xSum, ySum float64
	for i, v := range x {
		xSum += v
		ySum += y[i]
	}
	xMean := xSum / float64(n)
	yMean := ySum / float64(n)

	var sxx, sxy float64
	for i, v := range x {
		c := v - xMean
		cy := y[i] - yMean
		//lint:ignore floateq exact-zero sparsity skip, as in ridgeFit: only terms contributing exactly nothing are skipped
		if c == 0 {
			continue
		}
		sxy += c * cy
		sxx += c * c
	}
	sxx += lambda + 1e-9
	if sxx <= 0 || math.IsNaN(sxx) {
		return Line{}, fmt.Errorf("linalg: ridge solve failed: %w", ErrNotPositiveDefinite)
	}
	l := math.Sqrt(sxx)
	w := sxy / l / l

	var dot float64
	dot += w * xMean
	line := Line{Intercept: yMean - dot, Slope: w, N: n}
	var sse float64
	for i, v := range x {
		var wx float64
		wx += w * v
		d := y[i] - (line.Intercept + wx)
		sse += d * d
	}
	line.RMSE = rmseOf(sse, n)
	return line, nil
}

// errShape is returned when operand dimensions are incompatible.
var errShape = errors.New("linalg: incompatible shapes")

// matrix is a dense row-major matrix.
type matrix struct {
	rows, cols int
	data       []float64
}

// newMatrix returns a zeroed rows×cols matrix.
func newMatrix(rows, cols int) *matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// AddDiagonal adds lambda to every diagonal element in place, returning m.
func (m *matrix) AddDiagonal(lambda float64) *matrix {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += lambda
	}
	return m
}

// cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive definite A. A is not modified.
func cholesky(a *matrix) (*matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky needs a square matrix, got %dx%d", errShape, a.rows, a.cols)
	}
	n := a.rows
	l := newMatrix(n, n)
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

// solveCholesky solves A·x = b given the Cholesky factor L of A, by forward
// then backward substitution.
func solveCholesky(l *matrix, b []float64) ([]float64, error) {
	n := l.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: factor is %dx%d but rhs has %d entries", errShape, n, n, len(b))
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

// solve solves A·x = b for symmetric positive definite A.
func solve(a *matrix, b []float64) ([]float64, error) {
	l, err := cholesky(a)
	if err != nil {
		return nil, err
	}
	return solveCholesky(l, b)
}

// dot returns the dot product of two equal-length vectors.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// mean returns the arithmetic mean of v, or 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
