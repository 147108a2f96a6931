package linalg

import (
	"fmt"
	"math"
)

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
// its offset from the first row added. Its Line is the ridge line of those
// rows, solved in closed form, and equal to within rounding to the
// three-pass fit that centres the rows first (the tests keep it as the
// reference). The shift keeps the centred sums clear of the cancellation that
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
// slope: w = Sxy / (Sxx + λ + 1e-9) over the centred sums; the jitter keeps
// a constant x solvable. It fails on no row, on a negative penalty, and
// when a non-finite x leaves Sxx NaN. A non-finite y gives a Line whose
// RMSE is NaN.
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

// MaxFeatures is the most features a Sums fits.
const MaxFeatures = 4

// Fit is a fitted ridge model y ≈ Intercept + Σ Coef[j]·x[j] of at most
// MaxFeatures features, held by value like Line: it carries no pointer.
// Coef is zero past the features fitted. Every fitted Fit has N ≥ 1, so the
// zero Fit can mark "no fit".
type Fit struct {
	Intercept float64
	Coef      [MaxFeatures]float64
	// RMSE is the root-mean-squared training residual.
	RMSE float64
	// N is the number of training samples.
	N int
}

// At evaluates the fit at x, one value per feature fitted.
func (f Fit) At(x []float64) float64 {
	var dot float64
	for j, v := range x {
		dot += f.Coef[j] * v
	}
	return f.Intercept + dot
}

// Sums is LineSums for up to MaxFeatures features: it gathers the rows of a
// ridge fit in one pass and holds no row, only the count and the sums of x,
// y, the upper triangle of xxᵀ, xy and y², each row taken as its offset
// from the first row added. Every row of one Sums has the same number of
// features, p. The zero Sums holds no row; it carries no pointer.
type Sums struct {
	n, p int
	x0   [MaxFeatures]float64 // the shift: the first row
	y0   float64
	sx   [MaxFeatures]float64
	sy   float64
	sxx  [MaxFeatures * (MaxFeatures + 1) / 2]float64 // row by row, from the diagonal on
	sxy  [MaxFeatures]float64
	syy  float64
}

// Add adds the row (x, y); x holds one value per feature.
func (s *Sums) Add(x []float64, y float64) {
	if s.n == 0 {
		s.p = len(x)
		copy(s.x0[:], x)
		s.y0 = y
	}
	var d [MaxFeatures]float64
	for j := range s.p {
		d[j] = x[j] - s.x0[j]
	}
	y -= s.y0
	s.n++
	s.sy += y
	s.syy += y * y
	k := 0
	for i := range s.p {
		s.sx[i] += d[i]
		s.sxy[i] += d[i] * y
		for j := i; j < s.p; j++ {
			s.sxx[k] += d[i] * d[j]
			k++
		}
	}
}

// N returns the number of rows added.
func (s *Sums) N() int { return s.n }

// Merge adds o's rows, of as many features as s's, to s. o's sums are moved
// to s's shift first, as LineSums.Merge moves them.
func (s *Sums) Merge(o *Sums) {
	switch {
	case o.n == 0:
		return
	case s.n == 0:
		*s = *o
		return
	}
	var dx [MaxFeatures]float64
	for j := range s.p {
		dx[j] = o.x0[j] - s.x0[j]
	}
	dy, fn := o.y0-s.y0, float64(o.n)
	k := 0
	for i := range s.p {
		for j := i; j < s.p; j++ {
			s.sxx[k] += o.sxx[k] + dx[i]*o.sx[j] + dx[j]*o.sx[i] + fn*dx[i]*dx[j]
			k++
		}
		s.sxy[i] += o.sxy[i] + dx[i]*o.sy + dy*o.sx[i] + fn*dx[i]*dy
		s.sx[i] += o.sx[i] + fn*dx[i]
	}
	s.syy += o.syy + dy*(2*o.sy+fn*dy)
	s.sy += o.sy + fn*dy
	s.n += o.n
}

// Fit solves the ridge regression of the rows added, with penalty lambda on
// the coefficients and none on the intercept: w = (Sxx + (λ + 1e-9)·I)⁻¹·Sxy
// over the centred sums, by a Cholesky factorisation in place. The jitter
// keeps constant and collinear features solvable. It fails on no row, on a
// negative penalty, and when a non-finite x leaves a pivot NaN. A
// non-finite y gives a Fit that holds a NaN.
func (s *Sums) Fit(lambda float64) (Fit, error) {
	if s.n == 0 {
		return Fit{}, ErrNoSamples
	}
	if lambda < 0 {
		return Fit{}, fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	p, fn := s.p, float64(s.n)
	var mx [MaxFeatures]float64 // the means' offsets from the shift
	for j := range p {
		mx[j] = s.sx[j] / fn
	}
	my := s.sy / fn
	// The centred sums: g = Sxx, b = Sxy. A centred sum of squares is never
	// negative; rounding may leave it a hair below zero. max keeps a NaN.
	var g [MaxFeatures][MaxFeatures]float64
	var b [MaxFeatures]float64
	k := 0
	for i := range p {
		for j := i; j < p; j++ {
			g[i][j] = s.sxx[k] - s.sx[i]*mx[j]
			g[j][i] = g[i][j]
			k++
		}
		g[i][i] = max(g[i][i], 0)
		b[i] = s.sxy[i] - s.sx[i]*my
	}

	// Factor a = g + (λ+1e-9)·I = L·Lᵀ in place, L in a's lower triangle,
	// then solve L·Lᵀ·w = b.
	a := g
	for i := range p {
		a[i][i] += lambda + 1e-9
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := range j {
				sum -= a[i][k] * a[j][k]
			}
			switch {
			case i > j:
				a[i][j] = sum / a[j][j]
			case sum > 0:
				a[i][i] = math.Sqrt(sum)
			default: // a NaN pivot
				return Fit{}, fmt.Errorf("linalg: ridge solve failed: %w", ErrNotPositiveDefinite)
			}
		}
	}
	var w [MaxFeatures]float64
	for i := range p {
		sum := b[i]
		for k := range i {
			sum -= a[i][k] * w[k]
		}
		w[i] = sum / a[i][i]
	}
	for i := p - 1; i >= 0; i-- {
		sum := w[i]
		for k := i + 1; k < p; k++ {
			sum -= a[k][i] * w[k]
		}
		w[i] = sum / a[i][i]
	}

	// The residuals' sum of squares, Σ(yc − w·xc)² = Syy − wᵀ(2·Sxy − Sxx·w),
	// from the sums.
	sse := max(s.syy-s.sy*my, 0)
	var dot float64
	for i := range p {
		var gw float64
		for j := range p {
			gw += g[i][j] * w[j]
		}
		sse -= w[i] * (2*b[i] - gw)
		dot += w[i] * (s.x0[i] + mx[i])
	}
	return Fit{Intercept: (s.y0 + my) - dot, Coef: w, RMSE: rmseOf(sse, s.n), N: s.n}, nil
}

func rmseOf(sse float64, n int) float64 {
	if n == 0 || sse <= 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}
