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

// RidgeFit fits y ≈ w₀ + Σ wⱼ xⱼ with an L2 penalty lambda on the weights
// (the intercept is not penalised, implemented by centring). x is the n×p
// design matrix, row-major and flat (row i is x[i*p:(i+1)*p]); y has n
// responses. lambda must be ≥ 0; a small positive lambda also guarantees the
// normal equations are solvable when features are collinear, which happens
// constantly with neighbouring road speeds.
func RidgeFit(x []float64, p int, y []float64, lambda float64) (*RidgeModel, error) {
	if err := checkFit(x, p, y, lambda); err != nil {
		return nil, err
	}
	if p == 1 {
		l, err := ridgeLine(x, y, lambda)
		if err != nil {
			return nil, err
		}
		return &RidgeModel{Intercept: l.Intercept, Coef: []float64{l.Slope}, RMSE: l.RMSE, N: l.N}, nil
	}
	return ridgeFit(x, p, y, lambda)
}

// checkFit validates RidgeFit's inputs.
func checkFit(x []float64, p int, y []float64, lambda float64) error {
	n := len(y)
	if p < 0 || len(x) != n*p {
		return fmt.Errorf("%w: %d design values for %d responses of %d features", ErrShape, len(x), n, p)
	}
	if n == 0 {
		return ErrNoSamples
	}
	if lambda < 0 {
		return fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	return nil
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

// Line is a fitted one-feature ridge model y ≈ Intercept + Slope·x, held
// by value: it carries no pointer, so a caller can store many of them inline
// in one slice the garbage collector need not scan. Every fitted Line has
// N ≥ 1, so the zero Line can mark "no fit".
type Line struct {
	Intercept, Slope float64
	// RMSE is the root-mean-squared training residual.
	RMSE float64
	// N is the number of training samples.
	N int
}

// At evaluates the line at x.
func (l Line) At(x float64) float64 { return l.Intercept + l.Slope*x }

// LineSums gathers the rows of a one-feature ridge fit in one pass and holds
// no row: the count and the sums of x, y, x², xy and y², each row taken as
// its offset from the first row added. Its Line is RidgeFit(x, 1, y, λ)
// over the same rows, solved in closed form and equal to within rounding.
// The shift keeps the centred sums clear of the cancellation that
// Σx² − (Σx)²/n suffers on data far from zero. The zero LineSums holds no
// row; it carries no pointer.
type LineSums struct {
	n             int
	x0, y0        float64 // the shift: the first row
	sx, sy        float64
	sxx, sxy, syy float64
}

// Add adds the row (x, y).
func (s *LineSums) Add(x, y float64) {
	if s.n == 0 {
		s.x0, s.y0 = x, y
	}
	x -= s.x0
	y -= s.y0
	s.n++
	s.sx += x
	s.sy += y
	s.sxx += x * x
	s.sxy += x * y
	s.syy += y * y
}

// N returns the number of rows added.
func (s *LineSums) N() int { return s.n }

// Merge adds o's rows to s. o's sums are moved to s's shift first: each of
// its offsets grows by the difference of the two shifts.
func (s *LineSums) Merge(o *LineSums) {
	switch {
	case o.n == 0:
		return
	case s.n == 0:
		*s = *o
		return
	}
	dx, dy, fn := o.x0-s.x0, o.y0-s.y0, float64(o.n)
	s.sxx += o.sxx + dx*(2*o.sx+fn*dx)
	s.sxy += o.sxy + dx*o.sy + dy*o.sx + fn*dx*dy
	s.syy += o.syy + dy*(2*o.sy+fn*dy)
	s.sx += o.sx + fn*dx
	s.sy += o.sy + fn*dy
	s.n += o.n
}

// Line solves the ridge line of the rows added, with penalty lambda on the
// slope: w = Sxy / (Sxx + λ + 1e-9) over the centred sums, the jitter being
// RidgeFit's. It fails where RidgeFit does: on no row, on a negative
// penalty, and, as the solve does, when a non-finite x leaves Sxx NaN. A
// non-finite y gives a Line whose RMSE is NaN, as it gives RidgeFit's.
func (s *LineSums) Line(lambda float64) (Line, error) {
	if s.n == 0 {
		return Line{}, ErrNoSamples
	}
	if lambda < 0 {
		return Line{}, fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	fn := float64(s.n)
	mx, my := s.sx/fn, s.sy/fn // the means' offsets from the shift
	// A centred sum of squares is never negative; rounding may leave it a
	// hair below zero. max keeps a NaN.
	sxx := max(s.sxx-s.sx*mx, 0)
	syy := max(s.syy-s.sy*my, 0)
	sxy := s.sxy - s.sx*my
	d := sxx + lambda + 1e-9 // positive unless NaN
	if math.IsNaN(d) {
		return Line{}, fmt.Errorf("linalg: ridge solve failed: %w", ErrNotPositiveDefinite)
	}
	w := sxy / d
	return Line{
		Intercept: (s.y0 + my) - w*(s.x0+mx),
		Slope:     w,
		// The residuals' sum of squares, Σ(yc − w·xc)², from the sums.
		RMSE: rmseOf(syy-w*(2*sxy-w*sxx), s.n),
		N:    s.n,
	}, nil
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

func rmseOf(sse float64, n int) float64 {
	if n == 0 || sse <= 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}
