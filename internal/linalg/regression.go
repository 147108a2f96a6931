package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSamples is returned by RidgeFit when no training rows are supplied.
var ErrNoSamples = errors.New("linalg: no training samples")

// RidgeModel is a fitted linear model y ≈ Intercept + Σ Coef[j]·x[j].
type RidgeModel struct {
	Intercept float64
	Coef      []float64
	// RMSE is the root-mean-squared training residual; callers use it to
	// weigh this model against fallbacks.
	RMSE float64
	// N is the number of training samples.
	N int
}

// Predict evaluates the model at x, which must have len(Coef) features.
func (m *RidgeModel) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("%w: model has %d features, input has %d", ErrShape, len(m.Coef), len(x))
	}
	return m.Intercept + Dot(m.Coef, x), nil
}

// Predict1 evaluates a single-feature model at x without allocating the
// feature slice Predict requires; the per-pair regressions on the estimation
// hot path call this thousands of times per round.
func (m *RidgeModel) Predict1(x float64) (float64, error) {
	if len(m.Coef) != 1 {
		return 0, fmt.Errorf("%w: model has %d features, input has 1", ErrShape, len(m.Coef))
	}
	return m.Intercept + m.Coef[0]*x, nil
}

// RidgeFit fits y ≈ w₀ + Σ wⱼ xⱼ with an L2 penalty lambda on the weights
// (the intercept is not penalised, implemented by centring). x is the n×p
// design matrix, row-major and flat (row i is x[i*p:(i+1)*p]); y has n
// responses. lambda must be ≥ 0; a small positive lambda also guarantees the
// normal equations are solvable when features are collinear, which happens
// constantly with neighbouring road speeds.
func RidgeFit(x []float64, p int, y []float64, lambda float64) (*RidgeModel, error) {
	n := len(y)
	if p < 0 || len(x) != n*p {
		return nil, fmt.Errorf("%w: %d design values for %d responses of %d features", ErrShape, len(x), n, p)
	}
	if n == 0 {
		return nil, ErrNoSamples
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	if p == 1 {
		return ridgeFit1(x, y, lambda)
	}
	return ridgeFit(x, p, y, lambda)
}

// ridgeFit is the general path of RidgeFit over validated inputs.
func ridgeFit(x []float64, p int, y []float64, lambda float64) (*RidgeModel, error) {
	n := len(y)
	if p == 0 {
		// Intercept-only model.
		m := &RidgeModel{Intercept: Mean(y), Coef: nil, N: n}
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
	yMean := Mean(y)

	// Normal equations on centred data: (XᵀX + λI)·w = Xᵀy.
	xtx := NewMatrix(p, p)
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

	w, err := Solve(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge solve failed: %w", err)
	}
	m := &RidgeModel{
		Intercept: yMean - Dot(w, xMean),
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

// ridge1 carries a one-feature model and its coefficient in one allocation.
type ridge1 struct {
	m    RidgeModel
	coef [1]float64
}

// ridgeFit1 is ridgeFit for p = 1 — every pairwise and pooled regression the
// HLM trains — without the matrix and vector scaffolding. It performs the
// general path's floating-point operations in the general path's order, so
// both return bit-identical models: the 1×1 Cholesky solve divides by
// √(Sxx+λ+1e-9) twice rather than once by Sxx+λ+1e-9, and every Dot starts
// from a zero accumulator.
func ridgeFit1(x, y []float64, lambda float64) (*RidgeModel, error) {
	n := len(y)
	var xMean float64
	for _, v := range x {
		xMean += v
	}
	xMean /= float64(n)
	yMean := Mean(y)

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
		return nil, fmt.Errorf("linalg: ridge solve failed: %w", ErrNotPositiveDefinite)
	}
	l := math.Sqrt(sxx)
	w := sxy / l / l

	r := &ridge1{}
	r.coef[0] = w
	var dot float64
	dot += w * xMean
	r.m = RidgeModel{Intercept: yMean - dot, Coef: r.coef[:], N: n}
	var sse float64
	for i, v := range x {
		var wx float64
		wx += w * v
		d := y[i] - (r.m.Intercept + wx)
		sse += d * d
	}
	r.m.RMSE = rmseOf(sse, n)
	return &r.m, nil
}

func rmseOf(sse float64, n int) float64 {
	if n == 0 || sse <= 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}
